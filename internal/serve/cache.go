package serve

import (
	"container/list"
	"sort"
	"sync"
)

// Outcome classifies one cache lookup.
type Outcome string

const (
	// Hit: the result was already cached; the response bytes are served
	// without running anything.
	Hit Outcome = "hit"
	// Miss: this request is the first with its digest; the caller owns
	// the computation and must call Entry.Complete (or Entry.Abort).
	Miss Outcome = "miss"
	// Join: an identical request is already computing; this one waits on
	// the same entry instead of running a second simulation.
	Join Outcome = "join"
)

// Result is a completed computation's cached payload: the response
// bytes served to every requester with this digest, plus the optional
// machine-readable artifacts (the metrics experiment's BENCH JSON and
// chrome-trace export).
type Result struct {
	Response []byte
	Bench    []byte
	Trace    []byte
}

// Entry is one digest's slot in the cache. Between Miss and Complete
// the entry is in flight: joiners block on Done. In-flight entries are
// never evicted (evicting one would strand its joiners), so the cache
// can transiently hold more than max entries under load.
type Entry struct {
	Digest string
	done   chan struct{}

	// Owned by the cache mutex after completion.
	res     Result
	aborted bool
	failed  bool
	elem    *list.Element
}

// Done is closed when the entry completes, aborts, or fails.
func (e *Entry) Done() <-chan struct{} { return e.done }

// Result returns the cached payload and whether the computation
// completed (false: aborted or failed). Only valid after Done is
// closed.
func (e *Entry) Result() (Result, bool) { return e.res, !e.aborted }

// Failed reports whether the entry's computation failed terminally (a
// panicking experiment) rather than being cancelled: waiters should
// answer an error instead of re-arming the single-flight slot. Only
// valid after Done is closed.
func (e *Entry) Failed() bool { return e.failed }

// Stats are the cache's monotone outcome counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"joins"`
	Evictions uint64 `json:"evictions"`
	// Aborts counts in-flight entries withdrawn without a result —
	// cancelled, timed-out, shed, or failed runs. None of them ever
	// count as Entries: an aborted computation's bytes are never cached.
	Aborts  uint64 `json:"aborts"`
	Entries int    `json:"entries"`
}

// Cache is the digest-keyed single-flight result cache with LRU
// eviction by entry count.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*Entry
	lru     *list.List // completed entries, most recent at front
	stats   Stats

	// onComplete, when set, is called (outside the lock) every time an
	// entry completes, before its waiters are released; the server uses
	// it to persist the cache snapshot, so a result is on disk before
	// its response is sent.
	onComplete func()
}

// NewCache creates a cache holding at most max completed results
// (max <= 0 means unbounded).
func NewCache(max int) *Cache {
	return &Cache{max: max, entries: map[string]*Entry{}, lru: list.New()}
}

// Get looks up digest, creating an in-flight entry on miss. The caller
// must Complete or Abort the entry when the outcome is Miss.
func (c *Cache) Get(digest string) (*Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[digest]; ok {
		select {
		case <-e.done:
			c.stats.Hits++
			// Refresh recency.
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			return e, Hit
		default:
			c.stats.Joins++
			return e, Join
		}
	}
	e := &Entry{Digest: digest, done: make(chan struct{})}
	c.entries[digest] = e
	c.stats.Misses++
	return e, Miss
}

// GetCompleted returns the completed result for digest — counting a
// Hit and refreshing recency exactly like Get — but never creates an
// in-flight entry on absence. The synchronous handler uses it to serve
// hits ahead of admission control: bytes already in memory are always
// within any deadline.
func (c *Cache) GetCompleted(digest string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if !ok {
		return Result{}, false
	}
	select {
	case <-e.done:
		if e.aborted {
			return Result{}, false
		}
		c.stats.Hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		return e.res, true
	default:
		return Result{}, false
	}
}

// Peek returns the completed result for digest without creating an
// in-flight entry (and without counting an outcome).
func (c *Cache) Peek(digest string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if !ok {
		return Result{}, false
	}
	select {
	case <-e.done:
		if e.aborted {
			return Result{}, false
		}
		return e.res, true
	default:
		return Result{}, false
	}
}

// Complete makes the entry evictable, evicts the least-recently-used
// completed entries beyond the cache bound, runs the completion hook,
// and only then publishes the result to every waiter. The entry is in
// the completed set (and so in the hook's snapshot) from the start, but
// lookups see it as in flight until the hook has returned.
func (c *Cache) Complete(e *Entry, res Result) {
	c.mu.Lock()
	e.res = res
	e.elem = c.lru.PushFront(e)
	for c.max > 0 && c.lru.Len() > c.max {
		old := c.lru.Back()
		c.lru.Remove(old)
		victim := old.Value.(*Entry)
		delete(c.entries, victim.Digest)
		c.stats.Evictions++
	}
	cb := c.onComplete
	c.mu.Unlock()
	if cb != nil {
		cb()
	}
	close(e.done)
}

// Abort removes an in-flight entry without a result (a cancelled,
// timed-out, or shed job); waiters observe Done with ok=false, and the
// next identical request re-arms the single-flight slot and recomputes
// from scratch. This is the cache-side half of the cancellation
// contract: an interrupted computation's bytes can never be served.
func (c *Cache) Abort(e *Entry) {
	c.mu.Lock()
	e.aborted = true
	delete(c.entries, e.Digest)
	c.stats.Aborts++
	close(e.done)
	c.mu.Unlock()
}

// Fail removes an in-flight entry whose computation failed terminally
// (it panicked with a live context). Like Abort, nothing is cached and
// the next request recomputes — but waiters see Failed() and answer an
// error instead of looping on the re-arm path.
func (c *Cache) Fail(e *Entry) {
	c.mu.Lock()
	e.aborted = true
	e.failed = true
	delete(c.entries, e.Digest)
	c.stats.Aborts++
	close(e.done)
	c.mu.Unlock()
}

// Evict removes a completed entry by digest (test hook for the
// eviction-then-recompute identity battery). It reports whether the
// digest was present and completed.
func (c *Cache) Evict(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if !ok || e.elem == nil {
		return false
	}
	c.lru.Remove(e.elem)
	delete(c.entries, digest)
	c.stats.Evictions++
	return true
}

// Stats returns a snapshot of the outcome counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Snapshot returns every completed (digest, result) pair sorted by
// digest — the deterministic payload the server's checkpoint persists.
func (c *Cache) Snapshot() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		out = append(out, Entry{Digest: e.Digest, res: e.res})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Seed installs a completed result (checkpoint restore). Existing
// entries are left untouched.
func (c *Cache) Seed(digest string, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[digest]; ok {
		return
	}
	e := &Entry{Digest: digest, done: make(chan struct{}), res: res}
	e.elem = c.lru.PushBack(e)
	close(e.done)
	c.entries[digest] = e
}

// ResultOf exposes a snapshot entry's payload (Snapshot returns
// value copies whose res field is package-private).
func (e *Entry) ResultOf() Result { return e.res }
