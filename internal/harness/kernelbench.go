package harness

import (
	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// The kernel benchmark workloads measure the event kernel itself: how
// fast the simulator retires events (host wall time, allocations and
// events/sec) on the two kernel workloads of the benchmark gate. They
// are shared by the top-level go-test benchmarks (bench_kernel_test.go)
// and the benchgate command, which compares a fresh run against the
// kernel/<name> rows of the committed BENCH_gate.json baseline.
//
// Each workload builds its own simulator directly from sim.New (not
// NewSim), so the gate measures the bare kernel — no fault injector or
// metrics recorder — and the event count it returns is a pure function
// of the model, identical on every host.

// KernelBenchmark is one kernel workload of the benchmark gate.
type KernelBenchmark struct {
	// Name keys the workload's BENCH_gate.json row, kernel/<Name>
	// ("fig6", "sweep").
	Name string
	// Title is the human-readable description.
	Title string
	// Run executes the workload and returns the number of simulation
	// events fired — a deterministic count the gate checks exactly.
	Run func() uint64
}

// kernelBenchFig6 is the latency workload: a chain of sequential
// single-X-hop counted remote writes on the flagship 512-node machine —
// the Figure 6 measurement repeated back to back. The chain is
// intrinsically serial (each write launches from the previous
// completion), so it prices the kernel's per-event overhead on the
// 162 ns critical path.
func kernelBenchFig6() uint64 {
	const pings = 400
	s := sim.New()
	m := machine.Default512(s)
	src := packet.Client{Node: m.Torus.ID(topo.C(0, 0, 0)), Kind: packet.Slice0}
	dst := packet.Client{Node: m.Torus.ID(topo.C(1, 0, 0)), Kind: packet.Slice0}
	var round func(k int)
	round = func(k int) {
		if k == pings {
			return
		}
		m.Client(dst).Wait(0, uint64(k+1), func() { round(k + 1) })
		m.Client(src).Write(dst, 0, 0, 0)
	}
	round(0)
	s.Run()
	return s.Fired()
}

// kernelBenchSweep is the throughput workload: one range-limited plus
// one long-range DHFR time step mapped onto a 4x4x4 machine — the
// Table 3 measurement at the sweep's reduced scale. All 64 nodes send
// concurrently, so thousands of events are pending at once. (The full
// 512-node step fires the same event mix but takes several seconds per
// run, too slow for a gate that needs several iterations to average
// noise out.)
func kernelBenchSweep() uint64 {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	cfg := mdmap.DefaultConfig()
	cfg.MigrationInterval = 0
	cfg.GridN = 16
	mp := mdmap.New(s, m, cfg)
	mp.RunStep()
	mp.RunStep()
	return s.Fired()
}

// KernelBenchmarks returns the kernel workloads of the benchmark gate,
// in the order of their BENCH_gate.json rows.
func KernelBenchmarks() []KernelBenchmark {
	return []KernelBenchmark{
		{
			Name:  "fig6",
			Title: "sequential single-hop counted writes on 512 nodes (critical-path latency)",
			Run:   kernelBenchFig6,
		},
		{
			Name:  "sweep",
			Title: "one range-limited + one long-range DHFR step on 64 nodes (event throughput)",
			Run:   kernelBenchSweep,
		},
	}
}
