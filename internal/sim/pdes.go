package sim

// Conservative-window parallel DES (PDES) executor.
//
// The event population is partitioned into spatial domains — one queue per
// domain — and processed in conservative time windows sized by the
// decomposition's lookahead: the minimum latency any interaction needs to
// cross between two domains (for the torus models, the minimum inter-node
// link latency). Within a window the per-domain queue work — applying
// buffered cross-domain arrivals and extracting the window's batch in
// sorted order — runs on worker goroutines, one domain at a time per
// worker. The extracted batches are then merged and committed on the
// simulation goroutine in the canonical global (time, seq) order, which is
// exactly the order the sequential executor uses, so results are
// bit-identical at any worker count and to the sequential kernel.
//
// Committing on one goroutine is what lets the unmodified models — whose
// handlers touch machine-wide state such as packet sequence numbers,
// in-order delivery ledgers, traffic statistics, and the metrics recorder
// — run under the parallel executor without a confinement audit; the
// parallel payoff is the queue machinery (the dominant kernel cost beyond
// the handlers themselves), and the domain/window structure is the
// foundation handlers can migrate onto domain-confined state incrementally.
//
// Event routing during a window exploits the lookahead exactly the way
// conservative PDES does: a handler scheduling into its own window (only
// possible for intra-domain work closer than the lookahead) goes to a small
// coordinator-side overflow heap, while everything at or beyond the window
// horizon — in particular every cross-domain hand-off, which the lookahead
// guarantees lands there — is buffered in the target domain's inbox and
// integrated in parallel at the next window boundary.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the minimum number of resident events before a window
// spreads its queue work over goroutines; below it the spawn cost would
// dominate the heap work being spread.
const DefaultGrain = 256

const maxTime = Time(1<<63 - 1)

// Partition configures the spatial decomposition the PDES executor uses:
// the number of domains and the conservative lookahead (the minimum
// simulated latency of any inter-domain interaction; the window width).
// Model constructors call it once — machine.New partitions by torus node
// blocks with the NoC model's minimum link-adapter latency, cluster.New by
// rank blocks with the wire latency. The decomposition never affects
// results, only where queue work can run; it depends solely on the model,
// never on the worker count.
func (s *Sim) Partition(domains int, lookahead Dur) {
	if s.pd != nil && s.pd.inWindow {
		panic("sim: Partition during window execution")
	}
	if domains < 1 {
		domains = 1
	}
	if lookahead < 1 {
		lookahead = 1
	}
	s.ndom, s.la = domains, lookahead
	s.reconfigure()
}

// SetWorkers sets the number of goroutines the kernel may use for window
// queue work: 1 (the default) selects the sequential executor, 0 or a
// negative value resolves to GOMAXPROCS, larger values engage the PDES
// executor once Partition has configured more than one domain. Any
// setting produces bit-identical results.
func (s *Sim) SetWorkers(n int) {
	if s.pd != nil && s.pd.inWindow {
		panic("sim: SetWorkers during window execution")
	}
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	s.kworkers = n
	s.reconfigure()
}

// Workers reports the configured kernel worker count.
func (s *Sim) Workers() int {
	if s.kworkers < 1 {
		return 1
	}
	return s.kworkers
}

// Domains reports the configured domain count (1 when unpartitioned).
func (s *Sim) Domains() int {
	if s.ndom < 1 {
		return 1
	}
	return s.ndom
}

// SetGrain sets the minimum resident-event population before a window
// spawns extraction goroutines (default DefaultGrain). Tests lower it to
// force goroutines onto tiny workloads; it never affects results.
func (s *Sim) SetGrain(n int) {
	if n < 1 {
		n = 1
	}
	s.grain = n
	if s.pd != nil {
		s.pd.grain = n
	}
}

// reconfigure engages or disengages the PDES executor to match the current
// Partition/SetWorkers settings, migrating resident events between the
// sequential radix queue and the domain queues. Migration preserves every
// event's (time, seq) key, so the canonical order — and therefore every
// result — is untouched.
func (s *Sim) reconfigure() {
	on := s.ndom > 1 && s.kworkers > 1
	if on && s.pd != nil && s.pd.ndom == s.ndom && s.pd.lookahead == s.la {
		return // only the worker count changed; nothing resident moves
	}
	if s.pd != nil {
		// Drain the old decomposition back to the sequential queue, which
		// re-inserts the events in seq order (radixQueue.load).
		p := s.pd
		s.pd = nil
		var back []event
		for i := range p.dq {
			q := &p.dq[i]
			back = append(back, q.heap...)
			back = append(back, q.inbox...)
		}
		back = append(back, p.overflow...)
		s.events.load(back, s.now)
	}
	if !on {
		return
	}
	grain := s.grain
	if grain < 1 {
		grain = DefaultGrain
	}
	p := &pdes{ndom: s.ndom, lookahead: s.la, grain: grain, dq: make([]domainQ, s.ndom)}
	for i := range p.dq {
		p.dq[i].inboxMin = maxTime
	}
	s.pd = p
	for _, e := range s.events.all() {
		p.schedule(e)
	}
	s.events = radixQueue{}
}

// domainQ is one domain's event state. During a window's parallel phase
// exactly one worker owns each domainQ; between phases only the simulation
// goroutine touches it.
type domainQ struct {
	heap  eventHeap
	inbox []event // cross-window arrivals, integrated at the next boundary
	// inboxMin caches the earliest inbox timestamp so the coordinator can
	// bound the global minimum without walking (or heaping) inboxes.
	inboxMin Time
	active   bool
	// batch is the window's extracted, canonically sorted event run; bpos
	// is the merge cursor.
	batch []event
	bpos  int
	// wx is the domain's stage-2 window context (window.go), reused
	// across windows.
	wx *winCtx
}

// integrate merges the inbox into the heap and extracts this domain's
// batch for the window ending at horizon. Runs on a worker goroutine.
func (q *domainQ) integrate(horizon Time) {
	if len(q.inbox) > 0 {
		if len(q.heap) > 4*len(q.inbox) {
			for _, e := range q.inbox {
				q.heap.push(e)
			}
		} else {
			q.heap = append(q.heap, q.inbox...)
			q.heap.init()
		}
		for i := range q.inbox {
			q.inbox[i] = event{}
		}
		q.inbox = q.inbox[:0]
		q.inboxMin = maxTime
	}
	q.batch = q.batch[:0]
	q.bpos = 0
	for len(q.heap) > 0 && q.heap[0].at < horizon {
		q.batch = append(q.batch, q.heap.pop())
	}
}

// head returns the domain's next unmerged batch event.
func (q *domainQ) head() *event { return &q.batch[q.bpos] }

type pdes struct {
	ndom      int
	lookahead Dur
	grain     int
	dq        []domainQ
	active    []int // domains with resident events
	// overflow holds events scheduled during the current window for
	// commit inside it: with a true lookahead these are exclusively
	// intra-domain, sub-lookahead hand-offs.
	overflow eventHeap
	horizon  Time
	inWindow bool
	count    int // resident (scheduled, not yet committed) events
	heads    []int
	// wx[d] is domain d's window context during a stage-2 window
	// (nil outside one and for inactive domains).
	wx []*winCtx
}

// schedule routes one event. Called from the simulation goroutine only.
func (p *pdes) schedule(e event) {
	if e.dom < 0 || int(e.dom) >= p.ndom {
		// Tags from before a re-Partition (or explicit out-of-range tags)
		// are folded into range: tags are a locality hint, never meaning.
		e.dom = int32((uint32(e.dom)) % uint32(p.ndom))
	}
	p.count++
	if p.inWindow && e.at < p.horizon {
		p.overflow.push(e)
		return
	}
	q := &p.dq[e.dom]
	q.inbox = append(q.inbox, e)
	if e.at < q.inboxMin {
		q.inboxMin = e.at
	}
	if !q.active {
		q.active = true
		p.active = append(p.active, int(e.dom))
	}
}

// globalMin scans the active domains for the earliest resident timestamp,
// pruning domains that have gone empty. Returns maxTime when drained.
func (p *pdes) globalMin() Time {
	min := maxTime
	live := p.active[:0]
	for _, d := range p.active {
		q := &p.dq[d]
		if len(q.heap) == 0 && len(q.inbox) == 0 {
			q.active = false
			continue
		}
		live = append(live, d)
		if len(q.heap) > 0 && q.heap[0].at < min {
			min = q.heap[0].at
		}
		if q.inboxMin < min {
			min = q.inboxMin
		}
	}
	p.active = live
	return min
}

// run executes windows until the queues drain or (when bounded) every
// remaining event lies beyond deadline; it reports whether it drained.
// The abort hook is polled only here, between windows: a window that has
// started always commits whole, so an aborted run is a prefix of complete
// windows in the canonical order.
func (p *pdes) run(s *Sim, deadline Time, bounded bool) bool {
	for {
		if s.abortFn != nil && s.abortNow() {
			return false
		}
		min := p.globalMin()
		if min == maxTime {
			return true
		}
		if bounded && min > deadline {
			return false
		}
		horizon := min.Add(p.lookahead)
		if horizon <= min {
			horizon = maxTime // lookahead overflow: one unbounded window
		}
		// RunUntil is inclusive of the deadline, so the window may reach
		// deadline+1; if that increment overflows, no event can lie beyond
		// the deadline and no cap is needed.
		if dl1 := deadline + 1; bounded && dl1 > deadline && horizon > dl1 {
			horizon = dl1
		}
		if p.useExec(s) {
			p.execWindow(s, horizon)
		} else {
			p.extract(s, horizon)
			p.commit(s, horizon)
		}
	}
}

// extract runs each active domain's integrate for the window, spreading
// domains over worker goroutines when the population justifies it. Every
// domain is claimed by exactly one worker (atomic work counter), so the
// workers touch disjoint domainQ state; the WaitGroup publishes it back to
// the simulation goroutine.
func (p *pdes) extract(s *Sim, horizon Time) {
	act := p.active
	w := s.kworkers
	if w > len(act) {
		w = len(act)
	}
	if w <= 1 || p.count < p.grain {
		for _, d := range act {
			p.dq[d].integrate(horizon)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(act) {
					return
				}
				p.dq[act[i]].integrate(horizon)
			}
		}()
	}
	wg.Wait()
}

// commit merges the window's batches with the overflow heap and executes
// every event in canonical (time, seq) order on the simulation goroutine.
func (p *pdes) commit(s *Sim, horizon Time) {
	p.heads = p.heads[:0]
	for _, d := range p.active {
		if len(p.dq[d].batch) > 0 {
			p.heads = append(p.heads, d)
		}
	}
	for i := len(p.heads)/2 - 1; i >= 0; i-- {
		p.siftHeads(i)
	}
	p.inWindow = true
	p.horizon = horizon
	for {
		var e event
		switch {
		case len(p.heads) > 0 && len(p.overflow) > 0:
			if p.overflow[0].before(p.dq[p.heads[0]].head()) {
				e = p.overflow.pop()
			} else {
				e = p.popHead()
			}
		case len(p.heads) > 0:
			e = p.popHead()
		case len(p.overflow) > 0:
			e = p.overflow.pop()
		default:
			p.inWindow = false
			return
		}
		p.count--
		s.exec(&e)
	}
}

// popHead takes the earliest batch event and restores the merge heap.
func (p *pdes) popHead() event {
	q := &p.dq[p.heads[0]]
	e := q.batch[q.bpos]
	q.batch[q.bpos] = event{}
	q.bpos++
	if q.bpos == len(q.batch) {
		n := len(p.heads) - 1
		p.heads[0] = p.heads[n]
		p.heads = p.heads[:n]
	}
	p.siftHeads(0)
	return e
}

func (p *pdes) siftHeads(i int) {
	h := p.heads
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && p.dq[h[l]].head().before(p.dq[h[least]].head()) {
			least = l
		}
		if r < n && p.dq[h[r]].head().before(p.dq[h[least]].head()) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// step commits exactly the next event in canonical order — the sequential
// debugging path over the partitioned queues. O(active domains) per call.
func (p *pdes) step(s *Sim) bool {
	best := -1
	live := p.active[:0]
	for _, d := range p.active {
		q := &p.dq[d]
		if len(q.inbox) > 0 {
			q.integrateInbox()
		}
		if len(q.heap) == 0 {
			q.active = false
			continue
		}
		live = append(live, d)
		if best < 0 || q.heap[0].before(&p.dq[best].heap[0]) {
			best = d
		}
	}
	p.active = live
	if best < 0 {
		return false
	}
	e := p.dq[best].heap.pop()
	p.count--
	s.exec(&e)
	return true
}

// integrateInbox folds the inbox into the heap without extracting a batch.
func (q *domainQ) integrateInbox() {
	if len(q.heap) > 4*len(q.inbox) {
		for _, e := range q.inbox {
			q.heap.push(e)
		}
	} else {
		q.heap = append(q.heap, q.inbox...)
		q.heap.init()
	}
	for i := range q.inbox {
		q.inbox[i] = event{}
	}
	q.inbox = q.inbox[:0]
	q.inboxMin = maxTime
}
