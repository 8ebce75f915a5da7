package anton

import (
	"testing"

	"anton/internal/harness"
)

// BenchmarkKernel times the event kernel on the kernel workloads of the
// benchmark gate, the kernel/<name> rows of the committed BENCH_gate.json.
// The simulated event count is attached as a custom metric; it is a pure
// function of the model — only the host wall clock changes between runs.
// cmd/benchgate runs the same workloads (via harness.KernelBenchmarks)
// and gates CI on their event counts, wall time and allocs/op
// (-benchmem shows the last here).
func BenchmarkKernel(b *testing.B) {
	for _, bm := range harness.KernelBenchmarks() {
		b.Run(bm.Name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events = bm.Run()
			}
			b.ReportMetric(float64(events), "sim-events")
		})
	}
}
