package main

import (
	"fmt"
	"time"

	"anton/internal/machine"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// fig6-chain: the paper's headline path. One op is a chain of chainWrites
// zero-byte single-hop (X+) counted remote writes between the slice-0
// clients of two neighbouring nodes of one reused 512-node machine; each
// write launches when the previous one's counter fires, so the event
// queue is empty at every send and only per-event cost counts.
const (
	chainWrites = 1000
	// fig6WarmOps lets the heap reach its steady size before timing.
	fig6WarmOps = 50
	// Figure 6: a single-X-hop counted remote write takes 162 ns, and the
	// model spends seven events on it.
	writeLatency   = 162 * sim.Ns
	eventsPerWrite = 7
)

func init() {
	register(&workload{name: "fig6-chain", minOps: p99Samples, setup: setupFig6Chain})
}

type fig6Chain struct {
	simAcc
	m        *machine.Machine
	src, dst packet.Client
	// done is the number of writes completed so far, which is the
	// destination counter's value.
	done        uint64
	last        machine.Stats
	build       time.Duration
	buildAllocs uint64
}

// setupFig6Chain builds the machine and runs the warm-up ops. The seed
// picks the source node; by torus symmetry every node gives the same
// result.
func setupFig6Chain(seed int64, tr *tracer) (instance, error) {
	tr.begin("setup")
	defer tr.end()
	c := &fig6Chain{}
	c.s = sim.New()
	c.build, c.buildAllocs = build(tr, "machine.Default512", func() { c.m = machine.Default512(c.s) })
	tor := c.m.Torus
	src := topo.NodeID(seed % int64(tor.Nodes()))
	next := tor.Coord(src)
	next.X++
	c.src = packet.Client{Node: src, Kind: packet.Slice0}
	c.dst = packet.Client{Node: tor.ID(next), Kind: packet.Slice0}
	c.last = c.m.Stats()
	for i := 0; i < fig6WarmOps; i++ {
		if _, err := c.op(-1, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, nil
}

func (c *fig6Chain) op(_ int, tr *tracer) (time.Duration, error) {
	s, m := c.s, c.m
	c.sample(m, tr)
	fired, now := s.Fired(), s.Now()
	src, dst := m.Client(c.src), m.Client(c.dst)
	base := c.done
	var write func(k uint64)
	write = func(k uint64) {
		if k == chainWrites {
			return
		}
		dst.Wait(0, base+k+1, func() { write(k + 1) })
		src.Write(c.dst, 0, 0, 0)
	}

	start := time.Now()
	tr.begin("op")
	tr.begin("machine.Client.Write")
	write(0)
	tr.end()
	tr.begin("sim.Run")
	s.Run()
	tr.end()
	tr.end()
	lat := time.Since(start)

	c.done += chainWrites
	tr.begin("machine.Stats")
	st := m.Stats()
	tr.end()
	events, simPs := s.Fired()-fired, s.Now().Sub(now)
	sent, recv := st.Sent-c.last.Sent, st.Received-c.last.Received
	c.last = st
	if tr != nil {
		c.add(events, sent, recv, simPs, lat)
	}
	if simPs != chainWrites*writeLatency || events != chainWrites*eventsPerWrite || sent != chainWrites || recv != chainWrites {
		return lat, fmt.Errorf("chain of %d writes: %d ps, %d events, %d sent, %d received; want %d ps, %d events, %d sent and received",
			chainWrites, simPs, events, sent, recv, chainWrites*writeLatency, chainWrites*eventsPerWrite, chainWrites)
	}
	return lat, nil
}

func (c *fig6Chain) layers(_ *tracer, p *phase) (metrics, error) {
	m := c.simAcc.layers(p)
	buildLayers(m, c.build, c.buildAllocs)
	return m, nil
}

func (c *fig6Chain) finish() error        { return nil }
func (c *fig6Chain) info() map[string]any { return map[string]any{"src_node": int(c.src.Node)} }
func (c *fig6Chain) close()               {}
