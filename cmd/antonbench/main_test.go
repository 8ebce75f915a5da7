package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"anton/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current experiment output")

// TestGoldenReports pins the rendered text of the cheap experiments: the
// latency survey and breakdown (table1, fig5, fig6), the message-count
// sweep (fig7), the global all-reduce (table2), the in-order multicast
// migration step (migsync), the half-bandwidth and design ablations, and
// the soft-fault sweep. The 512-node reports are pinned at -quick by
// ci.sh against testdata/<id>-quick.golden. The reports are fully
// deterministic — the simulator has no real-time or
// random inputs, and sweep parallelism never changes a byte of output —
// so any diff means the performance model itself changed. After an
// intentional model change, regenerate with:
//
//	go test ./cmd/antonbench -run Golden -update
func TestGoldenReports(t *testing.T) {
	for _, id := range []string{
		"fig5", "fig6", "fig7", "table1", "table2", "migsync", "halfbw",
		"ablate-allreduce", "ablate-multicast", "ablate-staging", "faultsweep",
	} {
		e, ok := harness.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		got := e.RunWith(&harness.Session{Workers: 1}, false)
		path := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./cmd/antonbench -run Golden -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s report drifted from %s — if the model change is intentional, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
				id, path, got, want)
		}
	}
}

// TestKillsweepGolden pins the hard-failure recovery experiment's quick
// report: the Anton vs InfiniBand kill sweep's recovery costs, tallies,
// and detour latencies. Any diff means the recovery machinery (routing
// tables, watchdog, failover) changed behaviour. Quick mode keeps the
// run cheap; the full sweep is covered by the harness determinism test.
func TestKillsweepGolden(t *testing.T) {
	e, ok := harness.Lookup("killsweep")
	if !ok {
		t.Fatal("experiment killsweep not registered")
	}
	got := e.RunWith(&harness.Session{Workers: 1}, true)
	path := filepath.Join("testdata", "killsweep.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/antonbench -run Killsweep -update)", err)
	}
	if got != string(want) {
		t.Errorf("killsweep report drifted from %s — if the recovery-model change is intentional, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestFastpathGolden pins the analytic fast-path validation report in
// both fidelities. The des-fidelity report cross-checks every analytic
// answer against the event simulator with per-row error columns (any
// non-"exact" network cell or out-of-bound step cell is a tier
// divergence), and the analytic-fidelity report pins the closed-form
// answers and the calibration fit on their own. Regenerate after an
// intentional model change with:
//
//	go test ./cmd/antonbench -run Fastpath -update
func TestFastpathGolden(t *testing.T) {
	e, ok := harness.Lookup("fastpath")
	if !ok {
		t.Fatal("experiment fastpath not registered")
	}
	for _, fidelity := range []string{harness.FidelityDES, harness.FidelityAnalytic} {
		got := e.RunWith(&harness.Session{Workers: 1, Fidelity: fidelity}, true)
		name := "fastpath"
		if fidelity == harness.FidelityAnalytic {
			name = "fastpath-analytic"
		}
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./cmd/antonbench -run Fastpath -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s report drifted from %s — if the model change is intentional, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
				name, path, got, want)
		}
	}
}
