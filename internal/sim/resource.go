package sim

// Resource models a unit-capacity FIFO server such as a network link or a
// DMA engine: each acquisition occupies the resource for a caller-supplied
// service time, and requests are served strictly in arrival order.
//
// Acquire returns immediately (it only schedules); the supplied callback
// runs at the simulated time at which service *begins*. The resource is
// released automatically when the service time elapses.
type Resource struct {
	sim *Sim
	// freeAt is the earliest time the resource can begin the next service.
	freeAt Time
	// busy accumulates total occupied time, for utilization reporting.
	busy Dur
	uses uint64
}

// NewResource returns a resource attached to s.
func NewResource(s *Sim) *Resource { return &Resource{sim: s} }

// Acquire schedules fn to run when the resource becomes free (no earlier
// than now) and occupies the resource for service starting at that moment.
// It returns the time at which service begins.
func (r *Resource) Acquire(service Dur, fn func(start Time)) Time {
	start := r.freeAt
	if now := r.sim.Now(); start < now {
		start = now
	}
	r.freeAt = start.Add(service)
	r.busy += service
	r.uses++
	if fn != nil {
		r.sim.At(start, func() { fn(start) })
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
			c.sim.After(w.poll, w.fn)
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
		c.sim.After(pollOverhead, fn)
		return
	}
	c.waits = append(c.waits, counterWait{target: target, poll: pollOverhead, fn: fn})
}
