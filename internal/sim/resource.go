package sim

// Resource models a unit-capacity FIFO server such as a network link or a
// DMA engine: each acquisition occupies the resource for a caller-supplied
// service time, and requests are served strictly in arrival order.
//
// A Resource is plain data that Sim.Acquire schedules against. The zero
// value is free at time zero, so a model keeps its resources by value
// inside its own records and never initialises them.
type Resource struct {
	// freeAt is the earliest time the resource can begin the next service.
	freeAt Time
	// busy accumulates total occupied time, for utilization reporting.
	busy Dur
	uses uint64
}

// Acquire schedules h to fire when r becomes free (no earlier than now)
// and occupies r for service starting at that moment. It returns the time
// at which service begins, which is also Now when h fires. A nil h only
// occupies the resource. h is queued as given, with no wrapper, so a
// record that is its own handler schedules without allocating. The
// resource is released automatically when the service time elapses.
func (s *Sim) Acquire(r *Resource, service Dur, h Handler) Time {
	start := max(r.freeAt, s.now)
	r.freeAt = start.Add(service)
	r.busy += service
	r.uses++
	if h != nil {
		s.At(start, h)
	}
	return start
}

// FreeAt returns the earliest time the next acquisition could begin service.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime returns the total simulated time the resource has been occupied.
func (r *Resource) BusyTime() Dur { return r.busy }

// Uses returns the number of acquisitions.
func (r *Resource) Uses() uint64 { return r.uses }

// Counter is a monotonically increasing event counter with threshold
// waiters. It models Anton's synchronization counters at the kernel level:
// writers call Inc when a packet has been delivered, and a reader registers
// a callback to fire once the counter reaches a target value.
//
// Wait also accepts a poll overhead: the callback fires pollOverhead after
// the increment that satisfied the threshold, modelling the cost of the
// successful poll observing the new value. A Wait whose threshold is
// already met fires pollOverhead after now.
type Counter struct {
	sim   *Sim
	value uint64
	waits []counterWait
}

type counterWait struct {
	target uint64
	poll   Dur
	fn     func()
}

// NewCounter returns a counter attached to s with value zero.
func NewCounter(s *Sim) *Counter { return &Counter{sim: s} }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.value }

// Inc increments the counter by one and wakes any satisfied waiters.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n and wakes any satisfied waiters.
func (c *Counter) Add(n uint64) {
	c.value += n
	if len(c.waits) == 0 {
		return
	}
	remaining := c.waits[:0]
	for _, w := range c.waits {
		if c.value >= w.target {
			c.sim.After(w.poll, Func(w.fn))
		} else {
			remaining = append(remaining, w)
		}
	}
	c.waits = remaining
}

// Reset zeroes the counter. Resetting with waiters outstanding panics;
// Anton software only reuses a counter after its phase has completed.
func (c *Counter) Reset() {
	if len(c.waits) != 0 {
		panic("sim: Counter.Reset with outstanding waiters")
	}
	c.value = 0
}

// Wait schedules fn to run pollOverhead after the counter reaches target.
func (c *Counter) Wait(target uint64, pollOverhead Dur, fn func()) {
	if c.value >= target {
		c.sim.After(pollOverhead, Func(fn))
		return
	}
	c.waits = append(c.waits, counterWait{target: target, poll: pollOverhead, fn: fn})
}
