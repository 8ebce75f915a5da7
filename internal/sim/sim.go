// Package sim provides a deterministic discrete-event simulation kernel
// used by every timing model in this repository.
//
// Time is measured in integer picoseconds so that repeated additions of
// sub-nanosecond latency components (e.g. 8.8 ns ring hops) never accumulate
// floating-point error, and so that two runs of the same experiment are
// bit-identical. Events fire in (time, scheduling order): those scheduled
// for the same instant fire in the order in which they were scheduled,
// which makes the entire simulation deterministic without any further
// effort from the models built on top of it.
//
// Events fire one at a time from a monotone radix queue (queue.go), which
// is exact because the kernel never schedules before now and which keeps
// same-instant events in scheduling order by the order it appends them,
// without storing a sequence number.
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

// Handler is what an event runs when it fires. A model record that is
// scheduled again and again over its life implements Handler itself, so
// its events hold the record and firing one is a single interface call;
// a one-off callback is a Func.
type Handler interface{ Fire() }

// Func adapts a plain function to Handler. A func value is pointer-shaped,
// so converting a Func to a Handler does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is a scheduled handler. Its place among same-instant events is
// its place in the queue's buckets (queue.go), so it carries no sequence
// number and stays 24 bytes.
type event struct {
	at Time
	h  Handler
}

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    Time
	events radixQueue
	nfired uint64

	// Faults is the attachment point for the deterministic
	// fault-injection layer (internal/fault): fault.Attach stores its
	// *Injector here and the model constructors (machine.New,
	// cluster.New) pick it up, so one plan perturbs every model built
	// on this simulator. The kernel itself never touches it — event
	// ordering stays exactly as documented above, which is what makes
	// the fault layer's draws replayable.
	Faults any

	// Cooperative abort hook (abort.go): abortFn is polled between event
	// batches; aborted latches the first true answer. Both are nil/false
	// in every CLI path, so the hook costs nothing unless a serving-tier
	// session installs one.
	abortFn    func() bool
	aborted    bool
	abortBatch int
}

// New returns a fresh simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.nfired }

// Pending returns the number of events not yet executed.
func (s *Sim) Pending() int { return s.events.n }

// At schedules h to fire at absolute time t. Scheduling in the past
// panics: it always indicates a modelling bug rather than a recoverable
// condition. Among events at the same instant, h fires after every one
// scheduled before it: the deterministic FIFO tie-break.
func (s *Sim) At(t Time, h Handler) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.events.push(event{at: t, h: h})
}

// After schedules h to fire d after the current time.
func (s *Sim) After(d Dur, h Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now.Add(d), h)
}

// Step executes the next event, if any, and reports whether one ran.
func (s *Sim) Step() bool {
	if s.events.n == 0 {
		return false
	}
	e := s.events.pop()
	s.now = e.at
	s.nfired++
	e.h.Fire()
	return true
}

// Run executes events until the queue is empty and returns the final time.
// With an abort hook installed the loop may instead stop at a batch
// boundary (see Aborted); the state left behind is a clean prefix of the
// full run.
func (s *Sim) Run() Time {
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
