package metrics_test

import (
	"fmt"
	"testing"

	"anton/internal/machine"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// measure runs one counted remote write from the origin to dst on a fresh
// instrumented 512-node machine and returns the single reconstructed
// lifecycle.
func measure(t *testing.T, dst topo.Coord, bytes int) *metrics.Lifecycle {
	t.Helper()
	s := sim.New()
	m := machine.Default512(s)
	m.Metrics = metrics.New()
	a := packet.Client{Node: m.Torus.ID(topo.C(0, 0, 0)), Kind: packet.Slice0}
	b := packet.Client{Node: m.Torus.ID(dst), Kind: packet.Slice0}
	m.Client(b).Wait(9, 1, func() {})
	m.Client(a).Write(b, 9, 0, bytes)
	s.Run()
	lcs := m.Metrics.Lifecycles()
	if len(lcs) != 1 {
		t.Fatalf("got %d lifecycles, want 1", len(lcs))
	}
	return lcs[0]
}

// TestOneHopFigure6Exact pins the headline number: the measured stage
// attribution of the one-hop X+ 0-byte write reproduces the paper's
// Figure 6 components to the nanosecond — 42 + 19 + 40 + 25 + 36 =
// 162 ns.
func TestOneHopFigure6Exact(t *testing.T) {
	lc := measure(t, topo.C(1, 0, 0), 0)
	want := []struct {
		label string
		ns    float64
	}{
		{"send initiation", 42},
		{"source ring traversal", 19},
		{"link adapters + wire (X hop 1)", 40},
		{"payload serialization + destination ring traversal", 25},
		{"memory write + counter increment + successful poll", 36},
	}
	stages := lc.Stages()
	if len(stages) != len(want) {
		t.Fatalf("got %d stages, want %d: %v", len(stages), len(want), stages)
	}
	for i, w := range want {
		if stages[i].Label != w.label || stages[i].Dur != sim.Dur(w.ns*1000) {
			t.Errorf("stage %d = %q %.1f ns, want %q %.0f ns",
				i, stages[i].Label, stages[i].Dur.Ns(), w.label, w.ns)
		}
	}
	if lc.E2E() != 162*sim.Ns {
		t.Fatalf("one-hop E2E = %v, want 162ns (the paper's headline number)", lc.E2E())
	}
}

// TestMeasuredMatchesCalibrated cross-validates the observability layer
// against the calibrated closed-form model: for multi-hop dimension-
// ordered routes with and without payload, the measured stage
// attribution must equal noc.Model.Stages label for label and duration
// for duration, and the stages must sum exactly to the end-to-end
// latency.
func TestMeasuredMatchesCalibrated(t *testing.T) {
	model := noc.DefaultModel()
	tor := topo.NewTorus(8, 8, 8)
	cases := []struct {
		dst   topo.Coord
		bytes int
	}{
		{topo.C(1, 0, 0), 0},   // 1 hop X
		{topo.C(1, 0, 0), 256}, // 1 hop X, full payload
		{topo.C(2, 0, 0), 0},   // 2 hops X
		{topo.C(1, 1, 0), 0},   // X then Y
		{topo.C(1, 1, 0), 256},
		{topo.C(0, 0, 3), 0}, // 3 hops Z
		{topo.C(1, 1, 1), 0}, // one hop per dimension
		{topo.C(1, 1, 1), 256},
		{topo.C(4, 4, 4), 256}, // 12 hops: the 8x8x8 diameter
		{topo.C(0, 0, 0), 0},   // node-local: ring only, no torus hops
		{topo.C(0, 0, 0), 256},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%v/%dB", tc.dst, tc.bytes)
		t.Run(name, func(t *testing.T) {
			lc := measure(t, tc.dst, tc.bytes)
			meas := lc.Stages()
			hops := tor.HopsByDim(topo.C(0, 0, 0), tc.dst)
			wire := packet.HeaderBytes + tc.bytes
			cal := model.Stages(hops, packet.Slice0, packet.Slice0, wire)
			if len(meas) != len(cal) {
				t.Fatalf("measured %d stages, calibrated %d:\n%v\nvs\n%v",
					len(meas), len(cal), meas, cal)
			}
			var sum sim.Dur
			for i := range meas {
				if meas[i].Label != cal[i].Label {
					t.Errorf("stage %d label: measured %q, calibrated %q", i, meas[i].Label, cal[i].Label)
				}
				if meas[i].Dur != cal[i].Dur {
					t.Errorf("stage %d (%s): measured %v, calibrated %v",
						i, meas[i].Label, meas[i].Dur, cal[i].Dur)
				}
				sum += meas[i].Dur
			}
			if sum != lc.E2E() {
				t.Errorf("stage sum %v != E2E %v", sum, lc.E2E())
			}
			if want := model.PathLatency(hops, packet.Slice0, packet.Slice0, wire); lc.E2E() != want {
				t.Errorf("E2E %v != PathLatency %v", lc.E2E(), want)
			}
		})
	}
}
