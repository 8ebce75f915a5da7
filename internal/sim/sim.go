// Package sim provides a deterministic discrete-event simulation kernel
// used by every timing model in this repository.
//
// Time is measured in integer picoseconds so that repeated additions of
// sub-nanosecond latency components (e.g. 8.8 ns ring hops) never accumulate
// floating-point error, and so that two runs of the same experiment are
// bit-identical. Events scheduled for the same instant fire in the order in
// which they were scheduled (FIFO tie-break on a sequence number), which
// makes the entire simulation deterministic without any further effort from
// the models built on top of it.
//
// The kernel has two executors over the same canonical event order:
//
//   - The sequential executor (the default): one event at a time from a
//     monotone radix queue (queue.go). It is exact because the kernel never
//     schedules before now, and it keeps same-instant events in scheduling
//     order.
//   - The parallel PDES executor (pdes.go): the event population is
//     partitioned into spatial domains with one queue per domain, windows
//     derived from the minimum inter-domain link latency are processed with
//     the per-domain queue work spread over worker goroutines, and the
//     window's events are committed in the same global (time, seq) order
//     the sequential executor uses. Output is therefore bit-identical at
//     any worker count. Partition selects the decomposition; SetWorkers
//     selects the executor.
package sim

import "fmt"

// Time is an absolute simulation time in picoseconds.
type Time int64

// Dur is a span of simulation time in picoseconds.
type Dur int64

// Convenient duration units.
const (
	Ps Dur = 1
	Ns Dur = 1000
	Us Dur = 1000 * 1000
	Ms Dur = 1000 * 1000 * 1000
)

// Ns reports t in nanoseconds as a float (for reporting only; the kernel
// itself never uses floating point).
func (t Time) Ns() float64 { return float64(t) / 1000 }

// Us reports t in microseconds as a float.
func (t Time) Us() float64 { return float64(t) / 1e6 }

// Ns reports d in nanoseconds as a float.
func (d Dur) Ns() float64 { return float64(d) / 1000 }

// Us reports d in microseconds as a float.
func (d Dur) Us() float64 { return float64(d) / 1e6 }

// Add returns t shifted by d.
func (t Time) Add(d Dur) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Dur { return Dur(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fns", t.Ns()) }
func (d Dur) String() string  { return fmt.Sprintf("%.3fns", d.Ns()) }

// NsDur converts a nanosecond count to a Dur.
func NsDur(ns float64) Dur { return Dur(ns * 1000) }

// event is a scheduled callback. dom is the spatial domain the event
// belongs to under the PDES decomposition; the sequential executor records
// it but never reads it.
type event struct {
	at  Time
	seq uint64
	dom int32
	fn  func()
}

// before is the canonical event order shared by both executors:
// timestamp, then scheduling order (FIFO among same-instant events).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap over the canonical order, used by the
// PDES executor for its domain and overflow queues: its commit loop
// compares (at, seq) heads across queues, which a bucket queue cannot
// answer without a scan. The methods are hand-rolled rather than
// container/heap so pops do not box events into interfaces.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure
	*h = s[:n]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].before(&s[least]) {
			least = l
		}
		if r < n && s[r].before(&s[least]) {
			least = r
		}
		if least == i {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// init establishes the heap invariant over arbitrary contents in O(n).
func (h *eventHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    Time
	seq    uint64
	events radixQueue
	nfired uint64

	// curDom is the domain of the event currently executing; events
	// scheduled from inside an event inherit it, so a domain decomposition
	// installed by Partition propagates through event chains without the
	// models tagging every call site. Explicit cross-domain hand-offs use
	// AtDomain.
	curDom int32

	// PDES configuration (pdes.go). pd is non-nil exactly when the
	// parallel executor is engaged (Partition configured >1 domain and
	// SetWorkers asked for >1 worker).
	ndom     int
	la       Dur
	kworkers int
	grain    int
	pd       *pdes

	// Stage-2 state (ctx.go, window.go): confined records that the
	// workload declared the domain-confinement contract, confineVeto
	// permanently disables it, and inParallel is true exactly while
	// worker goroutines are executing a window's handlers — when only
	// domain-bound Ctx calls are legal.
	confined    bool
	confineVeto bool
	inParallel  bool
	// execWindows counts stage-2 windows executed, so tests and benchmarks
	// can prove the parallel path engaged rather than passing vacuously
	// through the stage-1 fallback.
	execWindows uint64

	// Faults is the attachment point for the deterministic
	// fault-injection layer (internal/fault): fault.Attach stores its
	// *Injector here and the model constructors (machine.New,
	// cluster.New) pick it up, so one plan perturbs every model built
	// on this simulator. The kernel itself never touches it — event
	// ordering stays exactly as documented above, which is what makes
	// the fault layer's draws replayable.
	Faults any

	// Cooperative abort hook (abort.go): abortFn is polled between event
	// batches (sequential executor) and at window boundaries (PDES
	// executor); aborted latches the first true answer. Both are nil/false
	// in every CLI path, so the hook costs nothing unless a serving-tier
	// session installs one.
	abortFn    func() bool
	aborted    bool
	abortBatch int

	// Metrics is the attachment point for the observability layer
	// (internal/metrics): metrics.Attach stores its *Recorder here and
	// the model constructors pick it up, exactly like Faults. The
	// recorder is purely passive — it appends to buffers and never
	// schedules events — so attaching it cannot change a single bit of
	// any simulation result.
	Metrics any
}

// New returns a fresh simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulation time. During a parallel window
// phase the global clock is unrelated to the calling handler's domain
// clock, so the call panics — confined handlers read time through a
// domain Ctx instead, and the panic turns an unconverted call site into
// a loud test failure rather than silent divergence.
func (s *Sim) Now() Time {
	if s.inParallel {
		panic("sim: Sim.Now during parallel window execution (use a domain Ctx)")
	}
	return s.now
}

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.nfired }

// Pending returns the number of events not yet executed.
func (s *Sim) Pending() int {
	if s.pd != nil {
		return s.pd.count
	}
	return s.events.n
}

// At schedules fn to run at absolute time t in the current event's domain.
// Scheduling in the past panics: it always indicates a modelling bug rather
// than a recoverable condition.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.schedule(s.curDom, t, fn)
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Dur, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now.Add(d), fn)
}

// AtDomain schedules fn at absolute time t in spatial domain dom. Models
// call it where an event chain crosses from one domain's state to
// another's — a packet leaving a node for its neighbour — so the PDES
// executor can keep each domain's queue local. The domain tag never
// affects results (the commit order is the canonical global one either
// way); a wrong tag only costs queue locality.
func (s *Sim) AtDomain(dom int, t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.schedule(int32(dom), t, fn)
}

// AfterDomain schedules fn to run d after the current time in domain dom.
func (s *Sim) AfterDomain(dom int, d Dur, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.AtDomain(dom, s.now.Add(d), fn)
}

// schedule assigns the global sequence number — the deterministic FIFO
// tie-break — and routes the event to the executor's queues. All
// scheduling happens on the simulation goroutine (model code only runs
// during event commit, which both executors serialize), so seq assignment
// is identical whatever the worker count.
func (s *Sim) schedule(dom int32, t Time, fn func()) {
	if s.inParallel {
		panic("sim: unconfined scheduling during parallel window execution (use a domain Ctx)")
	}
	s.seq++
	e := event{at: t, seq: s.seq, dom: dom, fn: fn}
	if p := s.pd; p != nil {
		p.schedule(e)
		return
	}
	s.events.push(e)
}

// Step executes the next event, if any, and reports whether one ran.
func (s *Sim) Step() bool {
	if s.pd != nil {
		return s.pd.step(s)
	}
	if s.events.n == 0 {
		return false
	}
	e := s.events.pop()
	s.exec(&e)
	return true
}

// exec commits one event: clock advance, domain context, callback.
func (s *Sim) exec(e *event) {
	s.now = e.at
	s.curDom = e.dom
	s.nfired++
	e.fn()
}

// Run executes events until the queue is empty and returns the final time.
// With an abort hook installed the loop may instead stop at a batch or
// window boundary (see Aborted); the state left behind is a clean prefix of
// the full run.
func (s *Sim) Run() Time {
	if s.pd != nil {
		s.pd.run(s, 0, false)
		return s.now
	}
	if s.abortFn == nil {
		for s.Step() {
		}
		return s.now
	}
	for !s.abortNow() {
		for budget := s.abortBatchSize(); budget > 0; budget-- {
			if !s.Step() {
				return s.now
			}
		}
	}
	return s.now
}

// RunUntil executes events with timestamps <= deadline. It returns true if
// the queue drained before the deadline, false if events remain beyond it.
// The clock is advanced to the deadline when events remain. An abort (see
// SetAbort) returns false with the clock left at the last committed event —
// the run is a prefix, not a result.
func (s *Sim) RunUntil(deadline Time) bool {
	if s.pd != nil {
		if s.pd.run(s, deadline, true) {
			return true
		}
		if !s.aborted {
			s.now = deadline
		}
		return false
	}
	if s.abortFn == nil {
		for s.events.n > 0 && s.events.min() <= deadline {
			s.Step()
		}
	} else {
		budget := s.abortBatchSize()
		for s.events.n > 0 && s.events.min() <= deadline {
			if budget == 0 {
				if s.abortNow() {
					return false
				}
				budget = s.abortBatchSize()
			}
			budget--
			s.Step()
		}
		if s.aborted {
			return false
		}
	}
	if s.events.n == 0 {
		return true
	}
	s.now = deadline
	return false
}

// RunFor executes events for d simulated time from now; see RunUntil.
func (s *Sim) RunFor(d Dur) bool { return s.RunUntil(s.now.Add(d)) }
