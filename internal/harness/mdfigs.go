package harness

import (
	"fmt"

	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/sim"
	"anton/internal/topo"
	"anton/internal/trace"
)

// agedStepTime measures the average (range-limited + long-range)/2 step
// time with the bond program aged by the given number of steps.
func agedStepTime(mp *mdmap.Mapping, age int) sim.Dur {
	mp.SetBondAge(age)
	a := mp.RunStep()
	b := mp.RunStep()
	return (a.Total + b.Total) / 2
}

func fig11(sess *Session, quick bool) string {
	out := header("Figure 11: step time evolution with and without bond program regeneration")
	mp := dhfrMapping(sess, 23558, 0)

	const regenPeriod = 120_000
	sample := 400_000
	if quick {
		sample = 1_600_000
	}
	t := NewTable("steps (millions)", "no regeneration (us)", "with regeneration (us)")
	var sumNo, sumRe sim.Dur
	n := 0
	for step := 0; step <= 8_000_000; step += sample {
		no := agedStepTime(mp, step)
		// With regeneration every 120k steps, the installed program's
		// snapshot is between one and two periods old (regeneration runs
		// in parallel and installs a program that is regenPeriod stale).
		effAge := regenPeriod + step%regenPeriod
		if step == 0 {
			effAge = 0
		}
		re := agedStepTime(mp, effAge)
		sumNo += no
		sumRe += re
		n++
		t.Row(fmt.Sprintf("%.1f", float64(step)/1e6),
			fmt.Sprintf("%.2f", no.Us()), fmt.Sprintf("%.2f", re.Us()))
	}
	out += t.String()
	imp := 100 * (1 - float64(sumRe)/float64(sumNo))
	out += fmt.Sprintf("\nbond program regeneration improves overall performance by %.0f%% (paper: 14%%)\n", imp)
	out += "paper: without regeneration the step time climbs from ~11.5 us toward ~16 us\nover 8 M steps; with regeneration every 120k steps it stays nearly flat\n"
	return out
}

func fig12(sess *Session, quick bool) string {
	out := header("Figure 12: average step time vs migration interval (17,758 particles)")
	intervals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if quick {
		intervals = []int{1, 2, 4, 8}
	}
	t := NewTable("migration interval (steps)", "average step time (us)")
	// Each interval builds and steps its own machine: the sweep points are
	// independent and run on the experiment worker pool.
	avgs := sweep(sess, len(intervals), func(k int) sim.Dur {
		iv := intervals[k]
		mp := dhfrMapping(sess, 17758, iv)
		steps := 2 * iv
		if steps < 4 {
			steps = 4
		}
		var total sim.Dur
		for i := 0; i < steps; i++ {
			total += mp.RunStep().Total
		}
		return total / sim.Dur(steps)
	})
	first, last := avgs[0], avgs[len(avgs)-1]
	for k, iv := range intervals {
		t.Row(iv, fmt.Sprintf("%.2f", avgs[k].Us()))
	}
	out += t.String()
	out += fmt.Sprintf("\nmigrating every 8 steps instead of every step improves performance by %.0f%% (paper: 19%%)\n",
		100*(1-float64(last)/float64(first)))
	return out
}

func fig13(sess *Session, quick bool) string {
	out := header("Figure 13: machine activity for two time steps (logic analyzer)")
	mp := dhfrMapping(sess, 23558, 0)
	s := mp.M.Sim
	tr := trace.New()
	mp.Tracer = tr
	attachLinkTrace(mp.M, tr)
	start := s.Now()
	mp.RunStep() // range-limited
	mp.RunStep() // long-range
	end := s.Now()

	out += tr.Timeline(start, end, end.Sub(start)/28)
	out += "\nlegend: ## mostly busy, ++ partially busy, .. stalled/waiting, blank idle\n"
	out += "columns: six torus link directions, Tensilica cores (TS), geometry cores (GC), HTIS\n\n"
	out += "phases (first occurrence order, extent across all units):\n"
	for _, ph := range tr.Phases() {
		out += fmt.Sprintf("  %-34s %8.2f -> %8.2f us\n", ph.Label, ph.Start.Sub(start).Us(), ph.End.Sub(start).Us())
	}
	out += "\npaper: the first (range-limited) step spans ~8 us, the second (long-range)\nstep ~24 us; torus links are occupied for much of the step and the\ncomputational units spend significant time waiting for data\n"
	return out
}

// attachLinkTrace records every torus-link occupancy as a trace span; the
// topo.Ports order (X+, X-, Y+, Y-, Z+, Z-) matches the first six trace
// units.
func attachLinkTrace(m *machine.Machine, tr *trace.Tracer) {
	m.OnLink = func(n topo.NodeID, p topo.Port, start sim.Time, service sim.Dur) {
		tr.Add(trace.Unit(topo.PortIndex(p)), start, start.Add(service), "", false)
	}
}

func init() {
	register(Experiment{ID: "fig11", Title: "bond program regeneration", run: fig11})
	register(Experiment{ID: "fig12", Title: "migration interval sweep", run: fig12})
	register(Experiment{ID: "fig13", Title: "activity timeline", run: fig13})
}
