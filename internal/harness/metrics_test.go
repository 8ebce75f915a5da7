package harness

import (
	"bytes"
	"testing"
)

// TestMetricsArtifactsWorkerIndependent pins the determinism contract of
// the observability layer: the metrics report, the BENCH_metrics.json
// payload, and the chrome-trace export must be byte-identical at any
// sweep worker count, because every sweep point owns a private simulator
// and recorder and shard histograms merge exactly in index order.
func TestMetricsArtifactsWorkerIndependent(t *testing.T) {
	want := metricsArtifacts(&Session{Workers: 1}, true)
	for _, w := range []int{4, 8, 0} {
		got := metricsArtifacts(&Session{Workers: w}, true)
		if got.Report != want.Report {
			t.Fatalf("workers=%d: report differs from sequential run\n--- sequential ---\n%s\n--- workers=%d ---\n%s",
				w, want.Report, w, got.Report)
		}
		if !bytes.Equal(got.BenchJSON, want.BenchJSON) {
			t.Fatalf("workers=%d: BENCH_metrics.json differs from sequential run", w)
		}
		if !bytes.Equal(got.Trace, want.Trace) {
			t.Fatalf("workers=%d: chrome trace differs from sequential run", w)
		}
	}
}
