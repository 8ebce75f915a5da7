package main

import (
	"runtime"
	"slices"
	"time"

	"anton/internal/machine"
	"anton/internal/packet"
	"anton/internal/sim"
)

// simAcc accumulates the kernel and machine counts of the traced ops of
// a workload that drives its own simulator.
type simAcc struct {
	s      *sim.Sim
	events uint64
	sent   uint64
	recv   uint64
	simPs  sim.Dur
	opTime time.Duration
	// depth holds Pending() at every packet send, sampled by the
	// Machine.OnSend hook that sample installs.
	depth []int
}

// sample installs the queue-depth hook for a traced op and removes it
// for an untraced one, so untraced ops run the model without a hook.
func (a *simAcc) sample(m *machine.Machine, tr *tracer) {
	if tr == nil {
		m.OnSend = nil
		return
	}
	m.OnSend = func(*packet.Packet, sim.Time) { a.depth = append(a.depth, a.s.Pending()) }
}

// add records one traced op.
func (a *simAcc) add(events, sent, recv uint64, simPs sim.Dur, lat time.Duration) {
	a.events += events
	a.sent += sent
	a.recv += recv
	a.simPs += simPs
	a.opTime += lat
}

// layers returns the sim.* and machine.* traffic metrics of the traced
// phase p. Allocations are the whole process's during the phase, so they
// include the benchmark's own span and sample records.
func (a *simAcc) layers(p *phase) metrics {
	ops := float64(p.ops)
	ev := float64(a.events)
	objects, bytes := p.allocs()
	depth := slices.Clone(a.depth)
	slices.Sort(depth)
	m := metrics{
		"sim.events_per_op":        {ev / ops, "count"},
		"sim.events_per_s":         {ev / a.opTime.Seconds(), "1/s"},
		"sim.allocs_per_event":     {objects / ev, "count"},
		"sim.bytes_per_event":      {bytes / ev, "B"},
		"sim.queue_depth_p50":      {0, "count"},
		"sim.queue_depth_max":      {0, "count"},
		"machine.sent_per_op":      {float64(a.sent) / ops, "count"},
		"machine.received_per_op":  {float64(a.recv) / ops, "count"},
		"machine.sim_ps_per_write": {float64(a.simPs) / float64(a.sent), "ps"},
	}
	if n := len(depth); n > 0 {
		m["sim.queue_depth_p50"] = metric{float64(depth[rank(50, n)-1]), "count"}
		m["sim.queue_depth_max"] = metric{float64(depth[n-1]), "count"}
	}
	return m
}

// build times one machine construction. With a tracer it also records a
// span and counts the allocations, which needs a stop-the-world memory
// read on either side.
func build(tr *tracer, name string, fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end()
	if tr == nil {
		return d, 0
	}
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// buildLayers reports one machine build.
func buildLayers(m metrics, d time.Duration, allocs uint64) {
	m["machine.build_ms"] = metric{ms(d), "ms"}
	m["machine.build_allocs"] = metric{float64(allocs), "count"}
}
