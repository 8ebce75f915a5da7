// Package collective implements Anton's collective operations, which are
// built entirely from multicast and counted remote writes: the hardware has
// no dedicated reduction network.
//
// The global all-reduce uses the paper's dimension-ordered algorithm
// (Section IV.B.4): the three-dimensional reduction decomposes into
// parallel one-dimensional all-reduce rounds along the X axis, then Y,
// then Z. Within each round, each of the N nodes along a ring broadcasts
// its data to, and receives data from, the other N-1 nodes via multicast
// counted remote writes; all N nodes then redundantly compute the same
// sum. Processing slice k receives the round-k writes and computes the
// partial sum, so after three rounds slice 2 on each node holds the global
// sum and shares it locally with the other three slices. The algorithm
// achieves the minimum total hop count (3N/2 per dimension-ring) in three
// rounds, versus 3*log2(N) rounds for a radix-2 butterfly.
//
// A butterfly all-reduce and a sum-in-accumulation-memory variant are
// provided for the paper's design-choice ablations.
package collective

import (
	"fmt"

	"anton/internal/machine"
	"anton/internal/metrics"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// InstallRingBroadcast installs multicast patterns so that any node can
// broadcast to the `kind` client of every other node along its dimension-d
// ring. Pattern base+r is the broadcast rooted at ring coordinate r; the
// same pattern id serves every parallel ring because forwarding decisions
// depend only on a node's own coordinate along d. Returns the number of
// pattern ids consumed (the ring size).
func InstallRingBroadcast(m *machine.Machine, d topo.Dim, kind packet.ClientKind, base packet.MulticastID) int {
	n := m.Torus.Size(d)
	plus := (n - 1 + 1) / 2 // nodes covered in the + direction
	minus := n - 1 - plus   // nodes covered in the - direction
	m.Torus.ForEach(func(c topo.Coord) {
		x := c.Get(d)
		for r := 0; r < n; r++ {
			delta := x - r
			if delta < 0 {
				delta += n
			}
			var e packet.McEntry
			switch {
			case delta == 0:
				if plus > 0 {
					e.Out = append(e.Out, topo.Port{Dim: d, Dir: +1})
				}
				if minus > 0 {
					e.Out = append(e.Out, topo.Port{Dim: d, Dir: -1})
				}
			case delta <= plus:
				e.Local = []packet.ClientKind{kind}
				if delta < plus {
					e.Out = append(e.Out, topo.Port{Dim: d, Dir: +1})
				}
			default: // negative-direction arm
				e.Local = []packet.ClientKind{kind}
				if n-delta < minus {
					e.Out = append(e.Out, topo.Port{Dim: d, Dir: -1})
				}
			}
			m.SetMulticast(m.Torus.ID(c), base+packet.MulticastID(r), e)
		}
	})
	return n
}

// Config parameterizes an all-reduce.
type Config struct {
	// Bytes is the wire payload per packet (0 for a pure barrier).
	Bytes int
	// Values is the logical vector length being reduced. The paper's
	// 32-byte reduction carries eight 4-byte quantities.
	Values int
	// CtrBase is the first of four synchronization-counter labels used
	// (one per round plus one for the final local share).
	CtrBase packet.CounterID
	// McBase is the first multicast pattern id; DimX+DimY+DimZ ids are
	// consumed.
	McBase packet.MulticastID
	// PerValueAdd is the software cost of adding one contribution of one
	// value during the redundant sum.
	PerValueAdd sim.Dur
	// RoundOverhead is the fixed software turnaround between receiving a
	// round's data and injecting the next round's packets.
	RoundOverhead sim.Dur
}

// DefaultConfig returns the calibrated configuration for a reduction of
// the given wire payload size, with one logical value per 4-byte quantity.
func DefaultConfig(bytes int) Config {
	return Config{
		Bytes:         bytes,
		Values:        bytes / 4,
		CtrBase:       32,
		McBase:        64,
		PerValueAdd:   2200 * sim.Ps,
		RoundOverhead: 70 * sim.Ns,
	}
}

// AllReduce is a reusable dimension-ordered global all-reduce across every
// node of a machine.
type AllReduce struct {
	m   *machine.Machine
	cfg Config
	gen uint64 // completed generations (for cumulative counter targets)
	// partial holds each node's current partial-sum vector.
	partial [][]float64
	dimOff  [topo.NumDims]packet.MulticastID

	// rec, the machine's Metrics recorder when it has one, receives one
	// labelled phase span per reduction round (first injection to last
	// node's completion of that round).
	rec        *metrics.Recorder
	roundStart [topo.NumDims]sim.Time
	roundOpen  [topo.NumDims]bool
	roundLeft  [topo.NumDims]int
}

// NewAllReduce installs the multicast patterns for all three dimensions and
// returns a ready all-reduce. It records its rounds into m.Metrics as set
// when it is built.
func NewAllReduce(m *machine.Machine, cfg Config) *AllReduce {
	ar := &AllReduce{m: m, cfg: cfg, partial: make([][]float64, m.Torus.Nodes()), rec: m.Metrics}
	id := cfg.McBase
	for d := topo.X; d < topo.NumDims; d++ {
		ar.dimOff[d] = id
		// Round-k writes are received by processing slice k.
		id += packet.MulticastID(InstallRingBroadcast(m, d, packet.Slice(int(d)), id))
	}
	return ar
}

// Run performs one global all-reduce. initial supplies each node's input
// vector (length cfg.Values; may be nil when Values is 0). done fires at
// the simulated instant the operation has completed on all destination
// nodes — when every slice of every node holds the global sum.
func (ar *AllReduce) Run(initial func(topo.NodeID) []float64, done func(at sim.Time)) {
	ar.gen++
	nodes := ar.m.Torus.Nodes()
	for id := 0; id < nodes; id++ {
		v := make([]float64, ar.cfg.Values)
		if initial != nil {
			copy(v, initial(topo.NodeID(id)))
		}
		ar.partial[id] = v
	}
	remaining := nodes
	perNodeDone := func(at sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(at)
		}
	}
	for d := topo.X; d < topo.NumDims; d++ {
		ar.roundOpen[d] = false
		ar.roundLeft[d] = nodes
	}
	for id := 0; id < nodes; id++ {
		ar.round(topo.NodeID(id), topo.X, perNodeDone)
	}
}

// Result returns node n's copy of the reduced vector after completion.
func (ar *AllReduce) Result(n topo.NodeID) []float64 { return ar.partial[n] }

// round executes reduction round d for node n: broadcast the current
// partial sum to the ring peers' slice d, await their contributions, and
// redundantly compute the new partial sum.
func (ar *AllReduce) round(n topo.NodeID, d topo.Dim, done func(sim.Time)) {
	m := ar.m
	if ar.rec != nil && !ar.roundOpen[d] {
		// The first node entering the round opens the span.
		ar.roundOpen[d] = true
		ar.roundStart[d] = m.Sim.Now()
	}
	ringN := m.Torus.Size(d)
	c := m.Torus.Coord(n)
	r := c.Get(d)
	ctr := ar.cfg.CtrBase + packet.CounterID(d)
	sender := senderSlice(d)
	recvKind := packet.Slice(int(d))
	recv := m.Client(packet.Client{Node: n, Kind: recvKind})

	if ringN > 1 {
		payload := append([]float64(nil), ar.partial[n]...)
		m.Client(packet.Client{Node: n, Kind: sender}).Send(&packet.Packet{
			Kind: packet.Write, Multicast: ar.dimOff[d] + packet.MulticastID(r),
			Counter: ctr, Addr: sumAddr(d, r, ar.cfg.Values), Bytes: ar.cfg.Bytes,
			Payload: payload, Tag: fmt.Sprintf("allreduce-%v", d),
		})
	}
	target := ar.gen * uint64(ringN-1)
	recv.Wait(ctr, target, func() {
		// Redundantly compute the ring sum: own partial + N-1 received.
		sum := ar.partial[n]
		for p := 0; p < ringN; p++ {
			if p == r {
				continue
			}
			vals := recv.Mem(sumAddr(d, p, ar.cfg.Values), ar.cfg.Values)
			for i := range sum {
				sum[i] += vals[i]
			}
		}
		cost := ar.cfg.RoundOverhead + sim.Dur(ar.cfg.Values*ringN)*ar.cfg.PerValueAdd
		m.Sim.After(cost, sim.Func(func() {
			if ar.rec != nil {
				ar.roundLeft[d]--
				if ar.roundLeft[d] == 0 {
					ar.rec.Span(fmt.Sprintf("all-reduce round %v", d), ar.roundStart[d], m.Sim.Now())
				}
			}
			if d < topo.Z {
				ar.round(n, d+1, done)
				return
			}
			ar.share(n, done)
		}))
	})
}

// share distributes the global sum from slice 2 to the node's other three
// slices with local writes, completing the operation on this node.
func (ar *AllReduce) share(n topo.NodeID, done func(sim.Time)) {
	m := ar.m
	src := m.Client(packet.Client{Node: n, Kind: packet.Slice2})
	ctr := ar.cfg.CtrBase + 3
	waiting := 3
	for _, k := range []packet.ClientKind{packet.Slice0, packet.Slice1, packet.Slice3} {
		dst := packet.Client{Node: n, Kind: k}
		m.Client(dst).Wait(ctr, ar.gen, func() {
			waiting--
			if waiting == 0 {
				done(m.Sim.Now())
			}
		})
		src.Write(dst, ctr, shareAddr(ar.cfg.Values), ar.cfg.Bytes, ar.partial[n]...)
	}
}

// senderSlice is the slice that injects round d's broadcasts: the slice
// that computed the previous round's partial sum (slice 0 initiates).
func senderSlice(d topo.Dim) packet.ClientKind {
	if d == topo.X {
		return packet.Slice0
	}
	return packet.Slice(int(d) - 1)
}

// sumAddr is the preallocated receive slot for the contribution from ring
// position p in round d.
func sumAddr(d topo.Dim, p, values int) int {
	return (int(d)*32 + p) * max(values, 1)
}

// shareAddr is the slot the final local share writes, just past the sum
// slots of the last round. Nothing reads it back: the share's counter is
// what completes the operation.
func shareAddr(values int) int { return sumAddr(topo.NumDims, 0, values) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
