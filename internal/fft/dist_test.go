package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

func randGrid(seed int64, n int) *Grid {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(n)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	return g
}

func randGreen(seed int64, n int) *Grid {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(n)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64()+0.5, 0)
	}
	return g
}

// runDistConvolve executes a distributed convolution and returns the
// result and completion time.
func runDistConvolve(t *testing.T, torusSide, gridN int, in, green *Grid) (*Grid, sim.Time) {
	t.Helper()
	s := sim.New()
	m := machine.New(s, topo.NewTorus(torusSide, torusSide, torusSide), noc.DefaultModel())
	d := NewDist(m, gridN, 0)
	var out *Grid
	var at sim.Time = -1
	d.Convolve(in, green, func(g *Grid, tm sim.Time) { out, at = g, tm })
	s.Run()
	if out == nil {
		t.Fatal("distributed convolution never completed")
	}
	return out, at
}

// The six stage buffers sit back to back in slice 0's local memory: a
// convolution on a 4x4x4 machine with a 16^3 grid (128 words per stage,
// 768 in all) leaves every slice-0 client within twice that.
func TestDistConvolveFootprint(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	d := NewDist(m, 16, 0)
	done := false
	d.Convolve(randGrid(30, 16), randGreen(31, 16), func(*Grid, sim.Time) { done = true })
	s.Run()
	if !done {
		t.Fatal("distributed convolution never completed")
	}
	for n := 0; n < m.Torus.Nodes(); n++ {
		c := m.Client(packet.Client{Node: topo.NodeID(n), Kind: packet.Slice0})
		if got := c.MemWords(); got > 1536 {
			t.Fatalf("node %d slice 0 holds %d words after one convolution, want at most 1536", n, got)
		}
	}
}

func TestDistConvolveMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ torus, grid int }{
		{2, 4},
		{2, 8},
		{4, 8},
	} {
		in := randGrid(10, tc.grid)
		green := randGreen(11, tc.grid)
		want := in.Clone()
		want.Convolve(green)
		got, _ := runDistConvolve(t, tc.torus, tc.grid, in, green)
		for i := range got.Data {
			if cmplx.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("torus %d grid %d: point %d = %v, want %v",
					tc.torus, tc.grid, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestDistConvolve512Node32Grid(t *testing.T) {
	// The paper's production configuration: a 32x32x32 grid on an 8x8x8
	// machine. Verify numerical correctness and that the communication
	// time lands near Table 3's FFT-based convolution row (7.5 us of
	// critical-path communication, 8.5 us total).
	if testing.Short() {
		t.Skip("512-node FFT in short mode")
	}
	in := randGrid(20, 32)
	green := randGreen(21, 32)
	want := in.Clone()
	want.Convolve(green)
	got, at := runDistConvolve(t, 8, 32, in, green)
	for i := range got.Data {
		if cmplx.Abs(got.Data[i]-want.Data[i]) > 1e-8 {
			t.Fatalf("point %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	us := at.Us()
	if us < 5.5 || us > 11 {
		t.Fatalf("FFT convolution took %.2fus, want ~8.5us (Table 3)", us)
	}
}

func TestDistRepeatedRuns(t *testing.T) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(2, 2, 2), noc.DefaultModel())
	d := NewDist(m, 4, 0)
	green := randGreen(31, 4)
	for run := int64(0); run < 2; run++ {
		in := randGrid(40+run, 4)
		want := in.Clone()
		want.Convolve(green)
		var out *Grid
		d.Convolve(in, green, func(g *Grid, tm sim.Time) { out = g })
		s.Run()
		if out == nil {
			t.Fatalf("run %d never completed", run)
		}
		for i := range out.Data {
			if cmplx.Abs(out.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("run %d point %d = %v, want %v", run, i, out.Data[i], want.Data[i])
			}
		}
	}
}

func TestDistExpectedPacketCounts(t *testing.T) {
	// Every node receives exactly lpn*N packets per pencil stage: the
	// fixed counts that make counted remote writes possible.
	s := sim.New()
	m := machine.New(s, topo.NewTorus(2, 2, 2), noc.DefaultModel())
	d := NewDist(m, 4, 0)
	if d.Expected() != d.lpn*d.N {
		t.Fatalf("Expected() = %d", d.Expected())
	}
	in := randGrid(50, 4)
	green := randGreen(51, 4)
	d.Convolve(in, green, func(*Grid, sim.Time) {})
	s.Run()
	// Per node: 5 pencil stages x lpn*N + final box stage b^3.
	wantPerNode := uint64(5*d.lpn*d.N + d.b*d.b*d.b)
	for id := 0; id < m.Torus.Nodes(); id++ {
		if got := m.Stats().NodeReceived(topo.NodeID(id)); got != wantPerNode {
			t.Fatalf("node %d received %d packets, want %d", id, got, wantPerNode)
		}
	}
}

func TestDistValidation(t *testing.T) {
	s := sim.New()
	cases := []struct {
		torus topo.Torus
		grid  int
	}{
		{topo.NewTorus(2, 2, 4), 8},  // non-cubic
		{topo.NewTorus(4, 4, 4), 10}, // grid not divisible
		{topo.NewTorus(8, 8, 8), 8},  // b*b=1 line per row < 8 nodes
	}
	for i, tc := range cases {
		m := machine.New(s, tc.torus, noc.DefaultModel())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewDist(m, tc.grid, 0)
		}()
	}
}

func TestDistFineGrainedPackets(t *testing.T) {
	// One grid point per packet: wire payloads stay at the complex-value
	// size throughout.
	s := sim.New()
	m := machine.New(s, topo.NewTorus(2, 2, 2), noc.DefaultModel())
	d := NewDist(m, 4, 0)
	maxBytes := 0
	m.OnSend = func(p *packet.Packet, at sim.Time) {
		if p.Bytes > maxBytes {
			maxBytes = p.Bytes
		}
	}
	d.Convolve(randGrid(60, 4), randGreen(61, 4), func(*Grid, sim.Time) {})
	s.Run()
	if maxBytes != d.Bytes {
		t.Fatalf("largest packet payload = %dB, want %dB", maxBytes, d.Bytes)
	}
}
