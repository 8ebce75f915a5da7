package sim

// Cooperative abort hook.
//
// A long-running simulation driven by the serving tier must be stoppable
// when its requester cancels, its deadline expires, or the server drains —
// without ever leaving partially committed state behind. The kernel
// supports this with a polled hook rather than preemption: the abort check
// runs only between event batches, so every event that has fired was
// committed in the canonical order (time, then scheduling order) and none
// is ever half-executed. An aborted run is therefore a clean prefix of
// the run that would have happened; the only non-determinism is *where*
// the prefix ends (the poll races wall-clock cancellation), which is why
// aborted runs must be discarded, never cached or reported. The serving
// tier enforces exactly that: a cancelled or timed-out run aborts its
// in-flight cache entry.

// DefaultAbortBatch is the number of committed events between abort-hook
// polls. Each poll is one closure call (a channel-closed check in
// practice), so the default keeps the overhead unmeasurable while bounding
// abort latency to a few thousand cheap handlers.
const DefaultAbortBatch = 4096

// SetAbort installs (or, with nil, removes) the abort hook. The hook is
// polled at event-batch boundaries; when it first returns true the run
// loops (Run, RunUntil, RunFor) return early and the simulator is marked
// aborted. The hook must be safe to call from the simulation goroutine
// and should be cheap — the canonical hook is a non-blocking receive on a
// context's Done channel. Installing a hook clears a previous aborted
// mark.
func (s *Sim) SetAbort(fn func() bool) {
	s.abortFn = fn
	s.aborted = false
}

// SetAbortBatch overrides the poll interval (default DefaultAbortBatch).
// Tests lower it to bound abort latency on tiny workloads; it never
// affects committed results, only how soon an abort is noticed.
func (s *Sim) SetAbortBatch(n int) {
	if n < 1 {
		n = 1
	}
	s.abortBatch = n
}

// Aborted reports whether a run loop stopped early because the abort hook
// fired. Pending events remain queued; the simulation state is a clean
// prefix of the full run and must not be treated as a result.
func (s *Sim) Aborted() bool { return s.aborted }

// abortNow polls the hook (sticky once it has fired).
func (s *Sim) abortNow() bool {
	if s.aborted {
		return true
	}
	if s.abortFn != nil && s.abortFn() {
		s.aborted = true
	}
	return s.aborted
}

// abortBatchSize resolves the poll interval.
func (s *Sim) abortBatchSize() int {
	if s.abortBatch < 1 {
		return DefaultAbortBatch
	}
	return s.abortBatch
}
