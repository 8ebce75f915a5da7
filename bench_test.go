package anton

import (
	"fmt"
	"testing"

	"anton/internal/cluster"
	"anton/internal/collective"
	"anton/internal/fft"
	"anton/internal/harness"
	"anton/internal/machine"
	"anton/internal/md"
	"anton/internal/mdmap"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// The benchmarks below regenerate the paper's tables and figures, one
// benchmark per published artifact. Wall-clock ns/op measures the host's
// simulation speed; the simulated quantities the paper reports are
// attached as custom metrics (sim-us, sim-ns).

// BenchmarkFig5LatencyVsHops measures the Figure 5 curve's anchor points:
// 1 and 12 network hops, zero-byte counted remote writes.
func BenchmarkFig5LatencyVsHops(b *testing.B) {
	var one, twelve sim.Dur
	for i := 0; i < b.N; i++ {
		one = harness.OneWayLatency(&harness.Session{Workers: 1}, topo.C(1, 0, 0), 0)
		twelve = harness.OneWayLatency(&harness.Session{Workers: 1}, topo.C(4, 4, 4), 0)
	}
	b.ReportMetric(one.Ns(), "sim-ns/1hop")
	b.ReportMetric(twelve.Ns(), "sim-ns/12hop")
}

// BenchmarkFig6Breakdown measures the single-hop headline end to end.
func BenchmarkFig6Breakdown(b *testing.B) {
	var lat sim.Dur
	for i := 0; i < b.N; i++ {
		lat = harness.OneWayLatency(&harness.Session{Workers: 1}, topo.C(1, 0, 0), 0)
	}
	b.ReportMetric(lat.Ns(), "sim-ns")
}

// BenchmarkTable1Survey measures the Anton entry of the latency survey.
func BenchmarkTable1Survey(b *testing.B) {
	var lat sim.Dur
	for i := 0; i < b.N; i++ {
		lat = harness.OneWayLatency(&harness.Session{Workers: 1}, topo.C(1, 0, 0), 0)
	}
	b.ReportMetric(lat.Us(), "sim-us")
}

// BenchmarkFig7FineGrained runs the 2 KB / 64-message transfer on the
// simulated machine (Anton side of Figure 7).
func BenchmarkFig7FineGrained(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		e, _ := harness.Lookup("fig7")
		out = e.RunWith(&harness.Session{Workers: 1}, true)
	}
	_ = out
}

// BenchmarkHalfBandwidth evaluates the message-size sweep of III.D.
func BenchmarkHalfBandwidth(b *testing.B) {
	e, _ := harness.Lookup("halfbw")
	for i := 0; i < b.N; i++ {
		_ = e.RunWith(&harness.Session{Workers: 1}, true)
	}
}

// BenchmarkTable2AllReduce512 runs the 512-node 32-byte dimension-ordered
// all-reduce of Table 2.
func BenchmarkTable2AllReduce512(b *testing.B) {
	var done sim.Time
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m := machine.Default512(s)
		ar := collective.NewAllReduce(m, collective.DefaultConfig(32))
		ar.Run(nil, func(at sim.Time) { done = at })
		s.Run()
	}
	b.ReportMetric(done.Us(), "sim-us")
}

// BenchmarkTable2Barrier runs the 0-byte reduction (fast global barrier).
func BenchmarkTable2Barrier(b *testing.B) {
	var done sim.Time
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m := machine.Default512(s)
		collective.Barrier(m, collective.DefaultConfig(0), func(at sim.Time) { done = at })
		s.Run()
	}
	b.ReportMetric(done.Us(), "sim-us")
}

// BenchmarkTable3AntonStep runs one range-limited plus one long-range DHFR
// step on the 512-node machine — the Anton column of Table 3.
func BenchmarkTable3AntonStep(b *testing.B) {
	var rl, lr mdmap.StepTiming
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m := machine.Default512(s)
		cfg := mdmap.DefaultConfig()
		cfg.MigrationInterval = 0
		mp := mdmap.New(s, m, cfg)
		rl = mp.RunStep()
		lr = mp.RunStep()
	}
	b.ReportMetric(rl.Total.Us(), "sim-us/range-limited")
	b.ReportMetric(lr.Total.Us(), "sim-us/long-range")
	b.ReportMetric((rl.Comm+lr.Comm).Us()/2, "sim-us/avg-comm")
}

// BenchmarkTable3Sweep runs the Table 3 measurement across four system
// sizes, once sequentially and once on four workers. Each sweep point
// owns an independent machine, so the per-size simulated timings are
// identical between the sub-benchmarks — only the host wall clock
// changes. Compare ns/op of the two sub-benchmarks for the speedup.
func BenchmarkTable3Sweep(b *testing.B) {
	sizes := []int{5000, 11000, 17758, 23558}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var totals []sim.Dur
			for i := 0; i < b.N; i++ {
				totals = harness.Table3Sweep(&harness.Session{Workers: workers}, sizes)
			}
			b.ReportMetric(totals[len(totals)-1].Us(), "sim-us/dhfr-avg-step")
		})
	}
}

// BenchmarkTable3DesmondStep measures the Desmond baseline's communication
// phases — the comparison column of Table 3.
func BenchmarkTable3DesmondStep(b *testing.B) {
	var pt cluster.PhaseTimes
	for i := 0; i < b.N; i++ {
		pt = cluster.Measure(512, cluster.DDR2InfiniBand())
	}
	b.ReportMetric(pt.RangeLimitedComm.Us(), "sim-us/range-limited-comm")
	b.ReportMetric(pt.LongRangeComm.Us(), "sim-us/long-range-comm")
}

// BenchmarkFig11BondAging compares a fresh bond program against one aged
// by eight million steps (the two curves of Figure 11).
func BenchmarkFig11BondAging(b *testing.B) {
	var fresh, aged sim.Dur
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m := machine.Default512(s)
		cfg := mdmap.DefaultConfig()
		cfg.MigrationInterval = 0
		mp := mdmap.New(s, m, cfg)
		fresh = mp.RunStep().Total
		mp.RunStep()
		mp.SetBondAge(8_000_000)
		aged = mp.RunStep().Total
	}
	b.ReportMetric(fresh.Us(), "sim-us/fresh")
	b.ReportMetric(aged.Us(), "sim-us/aged-8M")
}

// BenchmarkFig12Migration compares migrating every step against every
// eighth step (the end points of Figure 12).
func BenchmarkFig12Migration(b *testing.B) {
	avg := func(interval int) sim.Dur {
		s := sim.New()
		m := machine.Default512(s)
		cfg := mdmap.DefaultConfig()
		cfg.Atoms = 17758
		cfg.MigrationInterval = interval
		mp := mdmap.New(s, m, cfg)
		var total sim.Dur
		steps := 2 * interval
		if steps < 4 {
			steps = 4
		}
		for i := 0; i < steps; i++ {
			total += mp.RunStep().Total
		}
		return total / sim.Dur(steps)
	}
	var every, rare sim.Dur
	for i := 0; i < b.N; i++ {
		every = avg(1)
		rare = avg(8)
	}
	b.ReportMetric(every.Us(), "sim-us/interval-1")
	b.ReportMetric(rare.Us(), "sim-us/interval-8")
}

// BenchmarkFig13Trace runs the two traced time steps behind the activity
// timeline.
func BenchmarkFig13Trace(b *testing.B) {
	e, _ := harness.Lookup("fig13")
	for i := 0; i < b.N; i++ {
		_ = e.RunWith(&harness.Session{Workers: 1}, true)
	}
}

// BenchmarkMigrationSync measures the 26-neighbour in-order multicast
// synchronization write of Section IV.B.5.
func BenchmarkMigrationSync(b *testing.B) {
	var d sim.Dur
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m := machine.Default512(s)
		d = mdmap.MeasureMigrationSync(m)
	}
	b.ReportMetric(d.Us(), "sim-us")
}

// BenchmarkFFTConvolution32 runs the 32x32x32 distributed FFT convolution
// on 512 nodes (the FFT row of Table 3, and the companion paper's
// four-microsecond FFT).
func BenchmarkFFTConvolution32(b *testing.B) {
	var at sim.Time
	for i := 0; i < b.N; i++ {
		s := sim.New()
		m := machine.Default512(s)
		d := fft.NewDist(m, 32, 0)
		d.Convolve(fft.NewGrid(32), fft.NewGrid(32), func(_ *fft.Grid, t sim.Time) { at = t })
		s.Run()
	}
	b.ReportMetric(at.Us(), "sim-us")
}

// BenchmarkAblationAllReduce compares the three all-reduce designs of the
// IV.B.4 ablation.
func BenchmarkAblationAllReduce(b *testing.B) {
	run := func(mk func(m *machine.Machine, cfg collective.Config) interface {
		Run(func(topo.NodeID) []float64, func(sim.Time))
	}) sim.Dur {
		s := sim.New()
		m := machine.Default512(s)
		var done sim.Time
		mk(m, collective.DefaultConfig(32)).Run(nil, func(at sim.Time) { done = at })
		s.Run()
		return sim.Dur(done)
	}
	var dim, fly sim.Dur
	for i := 0; i < b.N; i++ {
		dim = run(func(m *machine.Machine, cfg collective.Config) interface {
			Run(func(topo.NodeID) []float64, func(sim.Time))
		} {
			return collective.NewAllReduce(m, cfg)
		})
		fly = run(func(m *machine.Machine, cfg collective.Config) interface {
			Run(func(topo.NodeID) []float64, func(sim.Time))
		} {
			return collective.NewButterflyAllReduce(m, cfg)
		})
	}
	b.ReportMetric(dim.Us(), "sim-us/dim-ordered")
	b.ReportMetric(fly.Us(), "sim-us/butterfly")
}

// BenchmarkMDEngineStep measures the sequential MD engine's force
// evaluation (the physical substrate).
func BenchmarkMDEngineStep(b *testing.B) {
	sys := md.Build(md.Config{Molecules: 64, Temperature: 1, Seed: 1})
	in := md.NewIntegrator(sys, 0.002)
	in.ComputeForces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Step()
	}
}

// BenchmarkMachineThroughput measures raw simulator performance: packets
// delivered per second of host time.
func BenchmarkMachineThroughput(b *testing.B) {
	s := sim.New()
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	slice := func(n topo.NodeID) packet.Client {
		return packet.Client{Node: n, Kind: packet.Slice0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := topo.NodeID(i % 64)
		dst := topo.NodeID((i * 31) % 64)
		m.Client(slice(src)).Write(slice(dst), 0, 0, 32)
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}
