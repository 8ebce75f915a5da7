package harness

import (
	"fmt"

	"anton/internal/cluster"
	"anton/internal/mdmap"
	"anton/internal/sim"
	"anton/internal/topo"
)

// dhfrMapping maps the paper's production DHFR configuration, resized to
// atoms and migrating every migrate steps (0 disables migration), onto a
// fresh 512-node machine: the workload of Table 3 and Figures 11-13.
func dhfrMapping(sess *Session, atoms, migrate int) *mdmap.Mapping {
	cfg := mdmap.DefaultConfig()
	cfg.Atoms = atoms
	cfg.MigrationInterval = migrate
	return sess.newMapping(sess.NewSim(), topo.NewTorus(8, 8, 8), cfg)
}

// antonStepTimes runs the DHFR benchmark mapping on a 512-node machine and
// returns averaged range-limited and long-range step timings (migration
// disabled, matching the per-step-type profiling of Table 3).
func antonStepTimes(sess *Session, atoms int) (rl, lr mdmap.StepTiming) {
	mp := dhfrMapping(sess, atoms, 0)
	// Average two of each step kind (the steps are deterministic, so two
	// suffice to confirm stability).
	var rls, lrs []mdmap.StepTiming
	for i := 0; i < 4; i++ {
		st := mp.RunStep()
		if st.Kind == mdmap.RangeLimited {
			rls = append(rls, st)
		} else {
			lrs = append(lrs, st)
		}
	}
	avg := func(xs []mdmap.StepTiming) mdmap.StepTiming {
		out := xs[0]
		for _, x := range xs[1:] {
			out.Total += x.Total
			out.Comm += x.Comm
			out.FFT += x.FFT
			out.Thermo += x.Thermo
			out.SentPerNode += x.SentPerNode
			out.RecvPerNode += x.RecvPerNode
		}
		n := sim.Dur(len(xs))
		out.Total /= n
		out.Comm /= n
		out.FFT /= n
		out.Thermo /= n
		out.SentPerNode /= float64(len(xs))
		out.RecvPerNode /= float64(len(xs))
		return out
	}
	return avg(rls), avg(lrs)
}

// Table3Sweep runs the Table 3 step-time measurement for several system
// sizes, one independent machine per size, on the session's worker pool.
// It returns the averaged per-step total for each size in input order;
// the per-size results are identical for any worker count. This is the
// workload behind BenchmarkTable3Sweep.
func Table3Sweep(sess *Session, atomCounts []int) []sim.Dur {
	return sweep(sess, len(atomCounts), func(k int) sim.Dur {
		rl, lr := antonStepTimes(sess, atomCounts[k])
		return (rl.Total + lr.Total) / 2
	})
}

func table3(sess *Session, quick bool) string {
	out := header("Table 3: critical-path communication and total time, DHFR on 512 nodes")
	rl, lr := antonStepTimes(sess, 23558)
	avgComm := (rl.Comm + lr.Comm) / 2
	avgTotal := (rl.Total + lr.Total) / 2

	// The Anton FFT/thermostat rows report the extents of those phases
	// within a long-range step; their communication part excludes the
	// arithmetic they contain.
	fftComm := lr.FFT - 2*sim.Us // ~2us of FFT arithmetic per node chain
	thermoComm := lr.Thermo - 500*sim.Ns

	des := cluster.MeasureSim(512, cluster.DDR2InfiniBand(), sess.NewSim)
	d := cluster.NewDesmond(cluster.New(sess.NewSim(), 512, cluster.DDR2InfiniBand()))
	desRLTotal := des.RangeLimitedComm + d.RangeLimitedCompute
	desLRTotal := des.LongRangeComm + d.LongRangeCompute
	desAvgComm := (des.RangeLimitedComm + des.LongRangeComm) / 2
	desAvgTotal := (desRLTotal + desLRTotal) / 2
	desFFTTotal := des.FFTComm + d.FFTCompute
	desThermoTotal := des.ThermostatComm + d.ThermostatCompute

	t := NewTable("phase", "Anton comm (us)", "Anton total (us)", "Desmond comm (us)", "Desmond total (us)")
	row := func(name string, ac, at, dc, dt sim.Dur) {
		t.Row(name, fmt.Sprintf("%.1f", ac.Us()), fmt.Sprintf("%.1f", at.Us()),
			fmt.Sprintf("%.0f", dc.Us()), fmt.Sprintf("%.0f", dt.Us()))
	}
	row("average time step", avgComm, avgTotal, desAvgComm, desAvgTotal)
	row("range-limited time step", rl.Comm, rl.Total, des.RangeLimitedComm, desRLTotal)
	row("long-range time step", lr.Comm, lr.Total, des.LongRangeComm, desLRTotal)
	row("FFT-based convolution", fftComm, lr.FFT, des.FFTComm, desFFTTotal)
	row("thermostat", thermoComm, lr.Thermo, des.ThermostatComm, desThermoTotal)
	out += t.String()

	out += fmt.Sprintf("\npaper (Anton):   avg 9.8/15.6, range-limited 5.0/9.0, long-range 14.6/22.2, FFT 7.5/8.5, thermostat 2.6/3.0\n")
	out += fmt.Sprintf("paper (Desmond): avg 262/565, range-limited 108/351, long-range 416/779, FFT 230/290, thermostat 78/99\n")
	out += fmt.Sprintf("\ncritical-path communication ratio (average step): %.0fx (paper: ~27x)\n",
		float64(desAvgComm)/float64(avgComm))
	out += fmt.Sprintf("messages per node per step: sent %.0f, received %.0f (paper: over 250 sent, over 500 received)\n",
		(rl.SentPerNode+lr.SentPerNode)/2, (rl.RecvPerNode+lr.RecvPerNode)/2)
	return out
}

func init() {
	register(Experiment{ID: "table3", Title: "Anton vs Desmond step times", run: table3})
}
