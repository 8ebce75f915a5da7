package harness

import (
	"strings"
	"testing"

	"anton/internal/sim"
	"anton/internal/topo"
)

func TestRegistry(t *testing.T) {
	want := []string{
		"ablate-allreduce", "ablate-multicast", "ablate-staging",
		"fastpath", "faultsweep", "fig11", "fig12", "fig13", "fig5",
		"fig6", "fig7", "halfbw", "killsweep", "metrics", "migsync",
		"scaling", "table1", "table2", "table3",
	}
	all := Experiments()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Fatal("Lookup(fig5) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown id succeeded")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("a", "bb")
	tab.Row(1, "x")
	tab.Row("long-cell", 2.5)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "a") || !strings.Contains(lines[3], "2.50") {
		t.Fatalf("table content wrong:\n%s", out)
	}
}

func TestHopPath(t *testing.T) {
	tor := topo.NewTorus(8, 8, 8)
	for h := 0; h <= 12; h++ {
		c := hopPath(h)
		if got := tor.Hops(topo.C(0, 0, 0), c); got != h {
			t.Fatalf("hopPath(%d) = %v, %d hops", h, c, got)
		}
	}
}

func TestOneWayLatencyHeadline(t *testing.T) {
	if got := OneWayLatency(&Session{Workers: 1}, topo.C(1, 0, 0), 0); got != 162*sim.Ns {
		t.Fatalf("headline latency = %v, want 162ns", got)
	}
}

func TestFig5Slopes(t *testing.T) {
	// Marginal hop costs from the measured path: 76 ns per X hop, 54 ns
	// per Y/Z hop.
	sess := &Session{Workers: 1}
	one := OneWayLatency(sess, hopPath(1), 0)
	four := OneWayLatency(sess, hopPath(4), 0)
	five := OneWayLatency(sess, hopPath(5), 0)
	if x := (four - one) / 3; x != 76*sim.Ns {
		t.Fatalf("X slope = %v, want 76ns", x)
	}
	if y := five - four; y != 54*sim.Ns {
		t.Fatalf("Y slope = %v, want 54ns", y)
	}
}

func TestAntonTransferFlat(t *testing.T) {
	// Fig. 7, Anton side: 64 messages must cost < 2x one message.
	sess := &Session{Workers: 1}
	one := antonTransfer(sess, 1, 2048, 1)
	many := antonTransfer(sess, 1, 2048, 64)
	if ratio := float64(many) / float64(one); ratio > 2 {
		t.Fatalf("64-message normalized cost = %.2f, want < 2", ratio)
	}
}

func TestCheapExperimentsRender(t *testing.T) {
	cases := map[string]string{
		"fig5":             "162",
		"fig6":             "end-to-end",
		"table1":           "Anton (measured here)",
		"table2":           "512 (8x8x8)",
		"fig7":             "InfiniBand",
		"halfbw":           "28-byte",
		"migsync":          "26 nearest neighbours",
		"ablate-multicast": "hardware multicast",
	}
	for id, marker := range cases {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		out := e.RunWith(&Session{Workers: 1}, true)
		if !strings.Contains(out, marker) {
			t.Fatalf("%s output missing %q:\n%s", id, marker, out)
		}
	}
}

func TestHalfBandwidthAt28Bytes(t *testing.T) {
	out := halfbw(&Session{Workers: 1}, true)
	if !strings.Contains(out, "reached at 28-byte messages") {
		t.Fatalf("half-bandwidth point is not 28 bytes:\n%s", out)
	}
}

func TestMigSyncNearPaper(t *testing.T) {
	out := migsync(&Session{Workers: 1}, true)
	// The measured value is printed as "...: X.XX us"; accept 0.2-1.0 us
	// around the paper's 0.56 us.
	if !strings.Contains(out, "0.") {
		t.Fatalf("unexpected migsync output:\n%s", out)
	}
}

func TestTable3Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 runs the full 512-node mapping")
	}
	out := table3(&Session{Workers: 1}, true)
	for _, marker := range []string{"average time step", "range-limited", "FFT-based convolution", "thermostat", "x (paper: ~27x)"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("table3 missing %q:\n%s", marker, out)
		}
	}
}

func TestFig13Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("fig13 runs the full 512-node mapping")
	}
	out := fig13(&Session{Workers: 1}, true)
	for _, marker := range []string{"HTIS", "position send", "range-limited interactions", "##"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("fig13 missing %q:\n%s", marker, out)
		}
	}
}

func TestScalingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling runs 8-to-512-node mappings")
	}
	out := scaling(&Session{Workers: 1}, true)
	for _, marker := range []string{"512 (8x8x8)", "comm share", "speedup"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("scaling output missing %q:\n%s", marker, out)
		}
	}
}
