package collective

import (
	"math/bits"

	"anton/internal/machine"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Barrier runs a fast global barrier, implemented as a 0-byte reduction as
// the paper describes (Table 2 caption). done fires when every node has
// observed the barrier.
func Barrier(m *machine.Machine, cfg Config, done func(at sim.Time)) {
	cfg.Bytes = 0
	cfg.Values = 0
	NewAllReduce(m, cfg).Run(nil, done)
}

// ButterflyAllReduce is the radix-2 butterfly alternative the paper rejects:
// 3*log2(N) rounds and 3(N-1) hops versus the dimension-ordered
// algorithm's 3 rounds and 3N/2 hops on an NxNxN machine. It exists for
// the design-choice ablation. All torus dimensions must be powers of two.
type ButterflyAllReduce struct {
	m       *machine.Machine
	cfg     Config
	gen     uint64
	partial [][]float64
}

// NewButterflyAllReduce returns a butterfly all-reduce (no multicast
// patterns are needed: every exchange is a unicast counted remote write).
func NewButterflyAllReduce(m *machine.Machine, cfg Config) *ButterflyAllReduce {
	for d := topo.X; d < topo.NumDims; d++ {
		if n := m.Torus.Size(d); n&(n-1) != 0 {
			panic("collective: butterfly all-reduce requires power-of-two dimensions")
		}
	}
	return &ButterflyAllReduce{m: m, cfg: cfg, partial: make([][]float64, m.Torus.Nodes())}
}

// Run performs one butterfly all-reduce; see AllReduce.Run.
func (b *ButterflyAllReduce) Run(initial func(topo.NodeID) []float64, done func(at sim.Time)) {
	b.gen++
	nodes := b.m.Torus.Nodes()
	for id := 0; id < nodes; id++ {
		v := make([]float64, b.cfg.Values)
		if initial != nil {
			copy(v, initial(topo.NodeID(id)))
		}
		b.partial[id] = v
	}
	remaining := nodes
	perNode := func(at sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(at)
		}
	}
	for id := 0; id < nodes; id++ {
		b.stage(topo.NodeID(id), topo.X, 0, perNode)
	}
}

// Result returns node n's reduced vector after completion.
func (b *ButterflyAllReduce) Result(n topo.NodeID) []float64 { return b.partial[n] }

func (b *ButterflyAllReduce) stage(n topo.NodeID, d topo.Dim, k int, done func(sim.Time)) {
	m := b.m
	ringN := m.Torus.Size(d)
	logN := bits.TrailingZeros(uint(ringN))
	if k >= logN {
		if d < topo.Z {
			b.stage(n, d+1, 0, done)
			return
		}
		done(m.Sim.Now())
		return
	}
	c := m.Torus.Coord(n)
	partner := m.Torus.ID(c.Set(d, c.Get(d)^(1<<k)))
	ctr := b.cfg.CtrBase + packet.CounterID(16+int(d)*8+k)
	addr := (int(d)*8 + k) * max(b.cfg.Values, 1)
	self := packet.Client{Node: n, Kind: packet.Slice0}
	dst := packet.Client{Node: partner, Kind: packet.Slice0}
	payload := append([]float64(nil), b.partial[n]...)
	m.Client(self).Send(&packet.Packet{
		Kind: packet.Write, Dst: dst, Multicast: packet.NoMulticast,
		Counter: ctr, Addr: addr, Bytes: b.cfg.Bytes, Payload: payload,
		Tag: "butterfly",
	})
	m.Client(self).Wait(ctr, b.gen, func() {
		vals := m.Client(self).Mem(addr, b.cfg.Values)
		sum := b.partial[n]
		for i := range sum {
			sum[i] += vals[i]
		}
		cost := b.cfg.RoundOverhead + sim.Dur(2*b.cfg.Values)*b.cfg.PerValueAdd
		m.Sim.After(cost, sim.Func(func() { b.stage(n, d, k+1, done) }))
	})
}

// AccumAllReduce is the sum-in-accumulation-memory variant the paper
// rejects (Section IV.B.4): the ring contributions accumulate in hardware,
// but the processing slices must poll the accumulation-memory counters
// across the on-chip network, which costs more than summing in software.
// It is dimension-ordered like AllReduce and exists for the ablation.
type AccumAllReduce struct {
	m       *machine.Machine
	cfg     Config
	gen     uint64
	partial [][]float64
	dimOff  [topo.NumDims]packet.MulticastID
}

// NewAccumAllReduce installs multicast patterns that deliver to the ring
// peers' accumulation memory 0.
func NewAccumAllReduce(m *machine.Machine, cfg Config) *AccumAllReduce {
	ar := &AccumAllReduce{m: m, cfg: cfg, partial: make([][]float64, m.Torus.Nodes())}
	id := cfg.McBase
	for d := topo.X; d < topo.NumDims; d++ {
		ar.dimOff[d] = id
		id += packet.MulticastID(InstallRingBroadcast(m, d, packet.Accum0, id))
	}
	return ar
}

// Run performs one all-reduce; see AllReduce.Run.
func (a *AccumAllReduce) Run(initial func(topo.NodeID) []float64, done func(at sim.Time)) {
	a.gen++
	nodes := a.m.Torus.Nodes()
	for id := 0; id < nodes; id++ {
		v := make([]float64, a.cfg.Values)
		if initial != nil {
			copy(v, initial(topo.NodeID(id)))
		}
		a.partial[id] = v
	}
	remaining := nodes
	perNode := func(at sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(at)
		}
	}
	for id := 0; id < nodes; id++ {
		a.round(topo.NodeID(id), topo.X, perNode)
	}
}

// Result returns node n's reduced vector after completion.
func (a *AccumAllReduce) Result(n topo.NodeID) []float64 { return a.partial[n] }

func (a *AccumAllReduce) round(n topo.NodeID, d topo.Dim, done func(sim.Time)) {
	m := a.m
	ringN := m.Torus.Size(d)
	c := m.Torus.Coord(n)
	r := c.Get(d)
	ctr := a.cfg.CtrBase + packet.CounterID(d)
	// Distinct accumulation range per generation and round, since
	// accumulation memories add rather than overwrite.
	addr := (int(a.gen-1)*3 + int(d)) * max(a.cfg.Values, 1)
	sender := m.Client(packet.Client{Node: n, Kind: senderSlice(d)})
	acc := packet.Client{Node: n, Kind: packet.Accum0}
	payload := append([]float64(nil), a.partial[n]...)

	// Broadcast the partial into the ring peers' accumulation memories...
	if ringN > 1 {
		sender.Send(&packet.Packet{
			Kind: packet.Accumulate, Multicast: a.dimOff[d] + packet.MulticastID(r),
			Counter: ctr, Addr: addr, Bytes: a.cfg.Bytes, Payload: payload,
			Tag: "accum-allreduce",
		})
	}
	// ...and contribute locally to our own.
	sender.Send(&packet.Packet{
		Kind: packet.Accumulate, Dst: acc, Multicast: packet.NoMulticast,
		Counter: ctr, Addr: addr, Bytes: a.cfg.Bytes, Payload: payload,
		Tag: "accum-allreduce-local",
	})

	target := a.gen * uint64(ringN)
	// The receiving slice polls the accumulation-memory counter across the
	// on-chip network: this is where the variant loses.
	m.Client(acc).WaitRemote(ctr, target, func() {
		sum := m.Client(acc).Mem(addr, a.cfg.Values)
		copy(a.partial[n], sum)
		// Reading the result back across the ring costs another round trip.
		cost := a.cfg.RoundOverhead + a.m.Model.AccumPoll
		m.Sim.After(cost, sim.Func(func() {
			if d < topo.Z {
				a.round(n, d+1, done)
				return
			}
			done(m.Sim.Now())
		}))
	})
}
