package harness

import (
	"anton/internal/analytic"
	"anton/internal/collective"
	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/sim"
	"anton/internal/topo"
)

// The analytic benchmark workloads measure the closed-form fast-path
// tier's query throughput against one equivalent event-driven run — the
// ">=1000x faster per query" contract of the fastpath experiment. The
// benchgate command records them as the analytic/<name> rows of
// BENCH_gate.json and gates the speedup floor.
//
// Like the kernel workloads, the DES side builds its simulator
// directly from sim.New (bare kernel, no fault injector or recorder),
// and every checksum is a pure function of the model — identical on
// every host — so the gate pins it exactly: the committed artifact is a
// machine-readable fingerprint of the calibrated fit.

// AnalyticBenchmark is one analytic fast-path workload of the benchmark
// gate.
type AnalyticBenchmark struct {
	// Name keys the workload's BENCH_gate.json row, analytic/<Name>.
	Name string
	// Title is the human-readable description.
	Title string
	// Queries is the number of closed-form queries one Run call answers.
	Queries int
	// Run answers the full query batch from the analytic tier and returns
	// the checksum — the sum of every answer in picoseconds.
	Run func() int64
	// DES runs one equivalent query on the event-driven simulator and
	// returns its answer in picoseconds; the gate times it to compute the
	// per-query speedup.
	DES func() int64
}

// AnalyticBenchmarks returns the analytic workloads of the benchmark
// gate, in the order of their BENCH_gate.json rows.
func AnalyticBenchmarks() []AnalyticBenchmark {
	tor := topo.NewTorus(8, 8, 8)
	origin := topo.C(0, 0, 0)
	sizes := []int{0, 64, 256}
	const maxHops = 12
	return []AnalyticBenchmark{
		{
			Name:    "p2p",
			Title:   "Figure 6 routes + hop-by-payload sweep grid, closed form vs one DES write",
			Queries: len(fastpathRoutes) + (maxHops+1)*len(sizes),
			Run: func() int64 {
				a := analytic.NewAnton(tor)
				var sum int64
				for _, r := range fastpathRoutes {
					sum += int64(a.WriteLatency(origin, r.dst, r.bytes))
				}
				for h := 0; h <= maxHops; h++ {
					for _, b := range sizes {
						sum += int64(a.WriteLatency(origin, hopPath(h), b))
					}
				}
				return sum
			},
			DES: func() int64 {
				s := sim.New()
				m := machine.Default512(s)
				return int64(measureWrite(m, origin, topo.C(1, 0, 0), 0, false))
			},
		},
		{
			Name:    "allreduce",
			Title:   "512-node global all-reduce completion, closed form vs one DES collective",
			Queries: 2,
			Run: func() int64 {
				a := analytic.NewAnton(tor)
				return int64(a.AllReduce(fastpathCollective(0))) + int64(a.AllReduce(fastpathCollective(32)))
			},
			DES: func() int64 {
				s := sim.New()
				m := machine.New(s, tor, noc.DefaultModel())
				ar := collective.NewAllReduce(m, collective.DefaultConfig(32))
				var done sim.Time
				ar.Run(nil, func(at sim.Time) { done = at })
				s.Run()
				return int64(done)
			},
		},
	}
}
