package metrics_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"anton/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current metrics output")

// TestGoldenArtifacts pins every artifact of the metrics experiment: the
// rendered text report (what `antonbench metrics` prints), the
// machine-readable BENCH_metrics.json payload, and the chrome://tracing
// export of the scripted trace scenario. All three are fully
// deterministic — integer-picosecond simulation, stable sorts, fixed
// formatting — so any diff means the performance model or the
// observability layer itself changed. After an intentional change,
// regenerate with:
//
//	go test ./internal/metrics -run Golden -update
func TestGoldenArtifacts(t *testing.T) {
	e, ok := harness.Lookup("metrics")
	if !ok {
		t.Fatal("experiment metrics not registered")
	}
	a := e.ArtifactsWith(&harness.Session{Workers: 1}, true)
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"report.golden", []byte(a.Report)},
		{"bench.golden.json", a.BenchJSON},
		{"trace.golden.json", a.Trace},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./internal/metrics -run Golden -update)", err)
		}
		if string(g.got) != string(want) {
			t.Errorf("%s drifted from %s — if the change is intentional, regenerate with -update\n--- got ---\n%s\n--- want ---\n%s",
				g.file, path, g.got, want)
		}
	}
}
