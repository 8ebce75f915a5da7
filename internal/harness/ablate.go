package harness

import (
	"fmt"

	"anton/internal/collective"
	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// ablateAllReduce compares the paper's dimension-ordered all-reduce with
// the two designs it rejects: the radix-2 butterfly (more rounds, more
// hops) and summing in the accumulation memories (expensive cross-ring
// counter polling).
func ablateAllReduce(sess *Session, quick bool) string {
	out := header("Ablation: all-reduce algorithm choices (Section IV.B.4)")
	tori := []topo.Torus{topo.NewTorus(4, 4, 4), topo.NewTorus(8, 8, 8)}
	if quick {
		tori = tori[:1]
	}
	t := NewTable("torus", "dimension-ordered (us)", "radix-2 butterfly (us)", "accum-memory sums (us)")
	// The three algorithm variants per torus each run on a private
	// machine; the torus sweep runs on the experiment worker pool.
	type trio struct{ dim, fly, acc sim.Dur }
	rs := sweep(sess, len(tori), func(k int) trio {
		tor := tori[k]
		run := func(mk func(m *machine.Machine) func(func(topo.NodeID) []float64, func(sim.Time))) sim.Dur {
			s := sess.NewSim()
			m := machine.New(s, tor, noc.DefaultModel())
			var done sim.Time
			mk(m)(nil, func(at sim.Time) { done = at })
			s.Run()
			return sim.Dur(done)
		}
		dim := run(func(m *machine.Machine) func(func(topo.NodeID) []float64, func(sim.Time)) {
			return collective.NewAllReduce(m, collective.DefaultConfig(32)).Run
		})
		fly := run(func(m *machine.Machine) func(func(topo.NodeID) []float64, func(sim.Time)) {
			return collective.NewButterflyAllReduce(m, collective.DefaultConfig(32)).Run
		})
		acc := run(func(m *machine.Machine) func(func(topo.NodeID) []float64, func(sim.Time)) {
			return collective.NewAccumAllReduce(m, collective.DefaultConfig(32)).Run
		})
		return trio{dim, fly, acc}
	})
	for k, tor := range tori {
		t.Row(tor.String(), fmt.Sprintf("%.2f", rs[k].dim.Us()), fmt.Sprintf("%.2f", rs[k].fly.Us()), fmt.Sprintf("%.2f", rs[k].acc.Us()))
	}
	out += t.String()
	out += "\nthe dimension-ordered algorithm needs 3 rounds and 3N/2 hops per ring; the\nbutterfly needs 3*log2(N) rounds; accumulation-memory summing pays the large\ncross-ring counter-polling penalty on every round\n"
	return out
}

// directNeighborExchange: each node pushes its data straight to all 26
// neighbours as fine-grained counted remote writes (Figure 8a, Anton
// style). Returns completion time for all nodes.
func directNeighborExchange(m *machine.Machine, packetsPerNeighbor, bytes int) sim.Dur {
	s := m.Sim
	tor := m.Torus
	start := s.Now()
	var last sim.Time
	tor.ForEach(func(c topo.Coord) {
		n := tor.ID(c)
		expected := uint64(len(tor.Neighbors26(c)) * packetsPerNeighbor)
		m.Client(packet.Client{Node: n, Kind: packet.Slice0}).Wait(11, expected, func() {
			if now := s.Now(); now > last {
				last = now
			}
		})
	})
	tor.ForEach(func(c topo.Coord) {
		src := m.Client(packet.Client{Node: tor.ID(c), Kind: packet.Slice0})
		for _, nc := range tor.Neighbors26(c) {
			dst := packet.Client{Node: tor.ID(nc), Kind: packet.Slice0}
			for i := 0; i < packetsPerNeighbor; i++ {
				src.Write(dst, 11, i*32, bytes)
			}
		}
	})
	s.Run()
	return last.Sub(start)
}

// stagedNeighborExchange: the commodity-cluster structure on Anton
// hardware — three stages (one per dimension), two consolidated messages
// per stage, data recombined between stages. Returns completion time.
func stagedNeighborExchange(m *machine.Machine, bytesPerStage int, marshal sim.Dur) sim.Dur {
	s := m.Sim
	tor := m.Torus
	start := s.Now()
	var last sim.Time
	nodes := tor.Nodes()
	remaining := nodes
	var stage func(c topo.Coord, k int)
	stage = func(c topo.Coord, k int) {
		if k >= 3 {
			remaining--
			if now := s.Now(); now > last {
				last = now
			}
			return
		}
		n := tor.ID(c)
		dim := topo.Dim(k)
		self := m.Client(packet.Client{Node: n, Kind: packet.Slice0})
		// Consolidated messages may exceed the 256-byte payload: split.
		sendBig := func(dst packet.Client, total int) int {
			count := 0
			for total > 0 {
				chunk := total
				if chunk > packet.MaxPayloadBytes {
					chunk = packet.MaxPayloadBytes
				}
				self.Write(dst, packet.CounterID(12+k), count*32, chunk)
				count++
				total -= chunk
			}
			return count
		}
		expect := 0
		for _, dir := range []topo.Direction{+1, -1} {
			dst := tor.ID(tor.Neighbor(c, topo.Port{Dim: dim, Dir: dir}))
			if dst == n {
				continue
			}
			expect += sendBig(packet.Client{Node: dst, Kind: packet.Slice0}, bytesPerStage)
		}
		// By symmetry this node receives what it sends.
		m.Client(packet.Client{Node: n, Kind: packet.Slice0}).Wait(packet.CounterID(12+k), uint64(expect), func() {
			s.After(marshal, sim.Func(func() { stage(c, k+1) }))
		})
	}
	tor.ForEach(func(c topo.Coord) { stage(c, 0) })
	s.Run()
	_ = remaining
	return last.Sub(start)
}

func ablateStaging(sess *Session, quick bool) string {
	out := header("Ablation: direct fine-grained exchange vs staged communication (Figure 8a)")
	// Exchange ~832 bytes of data with each of the 26 neighbours, either
	// directly (26 destinations x fine-grained packets) or staged
	// (3 stages x 2 consolidated messages carrying the aggregated data,
	// with marshalling between stages).
	s1 := sess.NewSim()
	m1 := machine.Default512(s1)
	direct := directNeighborExchange(m1, 13, 64) // 13 packets x 64 B to each neighbour

	s2 := sess.NewSim()
	m2 := machine.Default512(s2)
	// Each staged message consolidates one third of the total volume:
	// 26 neighbours x 832 B / (3 stages x 2 messages) ~ 3.6 KB per message.
	staged := stagedNeighborExchange(m2, 3600, 1500*sim.Ns)

	t := NewTable("strategy", "messages/node", "completion (us)")
	t.Row("direct fine-grained (Anton style)", 26*13, fmt.Sprintf("%.2f", direct.Us()))
	t.Row("staged 3-phase (commodity style)", 6, fmt.Sprintf("%.2f", staged.Us()))
	out += t.String()
	out += "\npaper: staging is preferable on commodity clusters to cut message count, but\non Anton a single round of direct fine-grained communication wins\n"
	return out
}

func ablateMulticast(sess *Session, quick bool) string {
	out := header("Ablation: hardware multicast vs repeated unicast")
	// Broadcast 32 packets of 64 B from one node to the 7 other nodes of
	// its X ring.
	runMulticast := func() (sim.Dur, uint64) {
		s := sess.NewSim()
		m := machine.Default512(s)
		collective.InstallRingBroadcast(m, topo.X, packet.Slice0, 0)
		var done sim.Time
		root := packet.Client{Node: 0, Kind: packet.Slice0}
		far := packet.Client{Node: m.Torus.ID(topo.C(4, 0, 0)), Kind: packet.Slice0}
		m.Client(far).Wait(5, 32, func() { done = s.Now() })
		for i := 0; i < 32; i++ {
			m.Client(root).Send(&packet.Packet{
				Kind: packet.Write, Multicast: 0, Counter: 5, Addr: i * 8, Bytes: 64,
			})
		}
		s.Run()
		return sim.Dur(done), m.Stats().Sent
	}
	runUnicast := func() (sim.Dur, uint64) {
		s := sess.NewSim()
		m := machine.Default512(s)
		var done sim.Time
		root := m.Client(packet.Client{Node: 0, Kind: packet.Slice0})
		far := packet.Client{Node: m.Torus.ID(topo.C(4, 0, 0)), Kind: packet.Slice0}
		m.Client(far).Wait(5, 32, func() { done = s.Now() })
		for i := 0; i < 32; i++ {
			for x := 1; x < 8; x++ {
				root.Write(packet.Client{Node: m.Torus.ID(topo.C(x, 0, 0)), Kind: packet.Slice0}, 5, i*8, 64)
			}
		}
		s.Run()
		return sim.Dur(done), m.Stats().Sent
	}
	mc, mcSent := runMulticast()
	uc, ucSent := runUnicast()
	t := NewTable("mechanism", "injected packets", "completion at farthest node (us)")
	t.Row("hardware multicast", mcSent, fmt.Sprintf("%.2f", mc.Us()))
	t.Row("repeated unicast", ucSent, fmt.Sprintf("%.2f", uc.Us()))
	out += t.String()
	out += "\nmulticast cuts both sender overhead and network bandwidth: positions are\nbroadcast to as many as 17 HTIS units per atom in the MD mapping\n"
	return out
}

func init() {
	register(Experiment{ID: "ablate-allreduce", Title: "all-reduce design ablation", run: ablateAllReduce})
	register(Experiment{ID: "ablate-staging", Title: "direct vs staged exchange", run: ablateStaging})
	register(Experiment{ID: "ablate-multicast", Title: "multicast vs unicast", run: ablateMulticast})
}
