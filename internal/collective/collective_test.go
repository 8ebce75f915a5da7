package collective

import (
	"testing"

	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

func defaultNoc() noc.Model { return noc.DefaultModel() }

func TestRingBroadcastReachesAllPeers(t *testing.T) {
	s := sim.New()
	m := machine.Default512(s)
	InstallRingBroadcast(m, topo.Y, packet.Slice1, 0)
	root := topo.C(3, 5, 2)
	got := map[topo.NodeID]bool{}
	m.OnDeliver = func(p *packet.Packet, dst packet.Client, at sim.Time) {
		if dst.Kind != packet.Slice1 {
			t.Errorf("delivered to %v, want slice1", dst)
		}
		if got[dst.Node] {
			t.Errorf("duplicate delivery to node %d", dst.Node)
		}
		got[dst.Node] = true
	}
	src := packet.Client{Node: m.Torus.ID(root), Kind: packet.Slice0}
	m.Client(src).Send(&packet.Packet{
		Kind: packet.Write, Multicast: packet.MulticastID(root.Y),
		Counter: 0, Bytes: 8,
	})
	s.Run()
	if len(got) != 7 {
		t.Fatalf("delivered to %d nodes, want 7", len(got))
	}
	if got[src.Node] {
		t.Fatal("broadcast delivered to its own root")
	}
	for _, c := range m.Torus.AxisNodes(root, topo.Y) {
		id := m.Torus.ID(c)
		if id != src.Node && !got[id] {
			t.Fatalf("ring peer %v missed", c)
		}
	}
}

func TestRingBroadcastTinyRing(t *testing.T) {
	// N=2 ring: a single peer, + direction only.
	s := sim.New()
	m := machine.New(s, topo.NewTorus(2, 1, 1), defaultNoc())
	InstallRingBroadcast(m, topo.X, packet.Slice0, 0)
	count := 0
	m.OnDeliver = func(p *packet.Packet, dst packet.Client, at sim.Time) { count++ }
	m.Client(packet.Client{Node: 0, Kind: packet.Slice0}).Send(&packet.Packet{
		Kind: packet.Write, Multicast: 0, Counter: 0, Bytes: 8,
	})
	s.Run()
	if count != 1 {
		t.Fatalf("deliveries = %d, want 1", count)
	}
}

// The all-reduce's receive and share slots are dense, so a 32-byte
// reduction on 8x8x16 (eight values, 16-node Z rings) leaves every client
// of every node within 1024 words of local memory.
func TestAllReduceFootprint(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(8, 8, 16), defaultNoc())
	done := false
	NewAllReduce(m, DefaultConfig(32)).Run(nil, func(sim.Time) { done = true })
	s.Run()
	if !done {
		t.Fatal("all-reduce never completed")
	}
	for n := 0; n < m.Torus.Nodes(); n++ {
		for k := packet.ClientKind(0); k < packet.NumClients; k++ {
			c := m.Client(packet.Client{Node: topo.NodeID(n), Kind: k})
			if got := c.MemWords(); got > 1024 {
				t.Fatalf("%v holds %d words after one all-reduce, want at most 1024", c.Addr, got)
			}
		}
	}
}

func TestAllReduceCorrectSum(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(4, 4, 4), defaultNoc())
	cfg := DefaultConfig(32)
	ar := NewAllReduce(m, cfg)
	var doneAt sim.Time = -1
	ar.Run(func(n topo.NodeID) []float64 {
		v := make([]float64, cfg.Values)
		for i := range v {
			v[i] = float64(int(n) + i)
		}
		return v
	}, func(at sim.Time) { doneAt = at })
	s.Run()
	if doneAt < 0 {
		t.Fatal("all-reduce never completed")
	}
	nodes := m.Torus.Nodes()
	// Expected sum over n of (n + i) = sum(n) + nodes*i.
	sumN := float64(nodes*(nodes-1)) / 2
	for id := 0; id < nodes; id++ {
		got := ar.Result(topo.NodeID(id))
		for i := range got {
			want := sumN + float64(nodes*i)
			if got[i] != want {
				t.Fatalf("node %d value %d = %v, want %v", id, i, got[i], want)
			}
		}
	}
}

func TestAllReduce512Latency(t *testing.T) {
	// Table 2: a 32-byte all-reduce on 512 nodes takes 1.77 us; a 0-byte
	// reduction takes 1.32 us. Allow 15% tolerance.
	for _, tc := range []struct {
		bytes  int
		wantUs float64
	}{
		{0, 1.32},
		{32, 1.77},
	} {
		s := sim.New()
		m := machine.Default512(s)
		ar := NewAllReduce(m, DefaultConfig(tc.bytes))
		var doneAt sim.Time = -1
		ar.Run(nil, func(at sim.Time) { doneAt = at })
		s.Run()
		got := doneAt.Us()
		if got < tc.wantUs*0.85 || got > tc.wantUs*1.15 {
			t.Errorf("512-node %dB all-reduce = %.3fus, want %.2fus +/- 15%%", tc.bytes, got, tc.wantUs)
		}
	}
}

func TestAllReduceScalesWithMachineSize(t *testing.T) {
	// Table 2 ordering: 64 < 128 < 256 < 512 < 1024 node latencies.
	sizes := []topo.Torus{
		topo.NewTorus(4, 4, 4),
		topo.NewTorus(8, 2, 8),
		topo.NewTorus(8, 8, 4),
		topo.NewTorus(8, 8, 8),
		topo.NewTorus(8, 8, 16),
	}
	var prev sim.Time
	for _, tor := range sizes {
		s := sim.New()
		m := machine.New(s, tor, defaultNoc())
		ar := NewAllReduce(m, DefaultConfig(32))
		var doneAt sim.Time
		ar.Run(nil, func(at sim.Time) { doneAt = at })
		s.Run()
		if doneAt <= prev {
			t.Fatalf("%v all-reduce %v not slower than previous %v", tor, doneAt, prev)
		}
		prev = doneAt
	}
}

func TestAllReduceRepeatedRuns(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(4, 2, 2), defaultNoc())
	cfg := DefaultConfig(32)
	ar := NewAllReduce(m, cfg)
	for run := 1; run <= 3; run++ {
		var doneAt sim.Time = -1
		ar.Run(func(n topo.NodeID) []float64 {
			v := make([]float64, cfg.Values)
			v[0] = float64(run)
			return v
		}, func(at sim.Time) { doneAt = at })
		s.Run()
		if doneAt < 0 {
			t.Fatalf("run %d never completed", run)
		}
		want := float64(run * m.Torus.Nodes())
		if got := ar.Result(0)[0]; got != want {
			t.Fatalf("run %d sum = %v, want %v", run, got, want)
		}
	}
}

func TestBarrier(t *testing.T) {
	s := sim.New()
	m := machine.Default512(s)
	var doneAt sim.Time = -1
	Barrier(m, DefaultConfig(0), func(at sim.Time) { doneAt = at })
	s.Run()
	if doneAt < 0 {
		t.Fatal("barrier never completed")
	}
	// A barrier is a 0-byte reduction: ~1.32 us on 512 nodes.
	if us := doneAt.Us(); us < 1.0 || us > 1.6 {
		t.Fatalf("barrier = %.3fus, want ~1.32us", us)
	}
}

func TestButterflyCorrectAndSlower(t *testing.T) {
	// The butterfly computes the same sums but needs 3*log2(N) rounds; on
	// an 8x8x8 machine it must lose to the dimension-ordered algorithm.
	sDim := sim.New()
	mDim := machine.Default512(sDim)
	arDim := NewAllReduce(mDim, DefaultConfig(32))
	var dimAt sim.Time
	arDim.Run(initV, func(at sim.Time) { dimAt = at })
	sDim.Run()

	sB := sim.New()
	mB := machine.Default512(sB)
	arB := NewButterflyAllReduce(mB, DefaultConfig(32))
	var bAt sim.Time
	arB.Run(initV, func(at sim.Time) { bAt = at })
	sB.Run()

	for id := 0; id < 512; id++ {
		a, b := arDim.Result(topo.NodeID(id)), arB.Result(topo.NodeID(id))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d value %d: dim %v vs butterfly %v", id, i, a[i], b[i])
			}
		}
	}
	if bAt <= dimAt {
		t.Fatalf("butterfly %v should be slower than dimension-ordered %v", bAt, dimAt)
	}
}

func initV(n topo.NodeID) []float64 {
	v := make([]float64, 8)
	for i := range v {
		v[i] = float64(int(n)%7 + i)
	}
	return v
}

func TestButterflyRequiresPowerOfTwo(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(3, 4, 4), defaultNoc())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two torus")
		}
	}()
	NewButterflyAllReduce(m, DefaultConfig(32))
}

func TestAccumVariantCorrectAndSlower(t *testing.T) {
	// Summing in the accumulation memories gives the right answer but the
	// cross-ring counter polling makes it slower — the paper's rationale
	// for summing in the processing slices.
	sDim := sim.New()
	mDim := machine.New(sDim, topo.NewTorus(4, 4, 4), defaultNoc())
	arDim := NewAllReduce(mDim, DefaultConfig(32))
	var dimAt sim.Time
	arDim.Run(initV, func(at sim.Time) { dimAt = at })
	sDim.Run()

	sA := sim.New()
	mA := machine.New(sA, topo.NewTorus(4, 4, 4), defaultNoc())
	arA := NewAccumAllReduce(mA, DefaultConfig(32))
	var aAt sim.Time
	arA.Run(initV, func(at sim.Time) { aAt = at })
	sA.Run()

	for id := 0; id < 64; id++ {
		a, b := arDim.Result(topo.NodeID(id)), arA.Result(topo.NodeID(id))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d value %d: slices %v vs accum %v", id, i, a[i], b[i])
			}
		}
	}
	if aAt <= dimAt {
		t.Fatalf("accum-memory variant %v should be slower than slice summing %v", aAt, dimAt)
	}
}

func TestAccumVariantRepeatedRuns(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(2, 2, 2), defaultNoc())
	ar := NewAccumAllReduce(m, DefaultConfig(32))
	for run := 1; run <= 2; run++ {
		var done bool
		ar.Run(func(n topo.NodeID) []float64 {
			v := make([]float64, 8)
			v[0] = 1
			return v
		}, func(sim.Time) { done = true })
		s.Run()
		if !done {
			t.Fatalf("run %d never completed", run)
		}
		if got := ar.Result(0)[0]; got != 8 {
			t.Fatalf("run %d sum = %v, want 8", run, got)
		}
	}
}
