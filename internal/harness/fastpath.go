package harness

import (
	"fmt"

	"anton/internal/analytic"
	"anton/internal/cluster"
	"anton/internal/collective"
	"anton/internal/mdmap"
	"anton/internal/sim"
	"anton/internal/topo"
)

// fastpathRoutes is the Figure 6 11-route table the observability layer
// cross-validates: the analytic tier must reproduce every entry exactly.
var fastpathRoutes = []struct {
	dst   topo.Coord
	bytes int
}{
	{topo.C(1, 0, 0), 0}, // the headline 162 ns
	{topo.C(1, 0, 0), 256},
	{topo.C(2, 0, 0), 0},
	{topo.C(1, 1, 0), 0},
	{topo.C(1, 1, 0), 256},
	{topo.C(0, 0, 3), 0},
	{topo.C(1, 1, 1), 0},
	{topo.C(1, 1, 1), 256},
	{topo.C(4, 4, 4), 256},
	{topo.C(0, 0, 0), 0}, // node-local write
	{topo.C(0, 0, 0), 256},
}

// fastpathCollective translates the machine collective's default
// configuration into the analytic tier's shape.
func fastpathCollective(bytes int) analytic.CollectiveConfig {
	c := collective.DefaultConfig(bytes)
	return analytic.CollectiveConfig{
		Bytes: c.Bytes, Values: c.Values,
		PerValueAdd: c.PerValueAdd, RoundOverhead: c.RoundOverhead,
	}
}

// errCell renders one analytic-vs-DES error column entry. The network
// queries' documented bound is zero, so any non-"exact" cell in those
// sections is a regression the golden catches.
func errCell(des, an sim.Dur) string {
	if des == an {
		return "exact"
	}
	return fmt.Sprintf("%+.2f%%", 100*float64(an-des)/float64(des))
}

// withinBound reports whether the analytic answer is within the relative
// bound of the DES answer.
func withinBound(des, an sim.Dur, bound float64) bool {
	rel := float64(an-des) / float64(des)
	if rel < 0 {
		rel = -rel
	}
	return rel <= bound
}

// clusterDES runs one event-driven cluster operation on a fresh
// simulator and returns its completion time.
func clusterDES(sess *Session, n int, op func(c *cluster.Cluster, done func(sim.Time))) sim.Dur {
	s := sess.NewSim()
	c := cluster.New(s, n, cluster.DDR2InfiniBand())
	var at sim.Time
	op(c, func(t sim.Time) { at = t })
	s.Run()
	return sim.Dur(at)
}

// desStepKinds runs the event-driven workload for the given number of
// steps and returns the steady-state total per step kind (the last of
// each — the convention the step model is calibrated against).
func desStepKinds(sess *Session, tor topo.Torus, cfg mdmap.Config, atoms, steps int) map[mdmap.StepKind]sim.Dur {
	cfg.Atoms = atoms
	mp := sess.newMapping(sess.NewSim(), tor, cfg)
	out := make(map[mdmap.StepKind]sim.Dur)
	for i := 0; i < steps; i++ {
		st := mp.RunStep()
		out[st.Kind] = st.Total
	}
	return out
}

// fastpath is the analytic fast-path validation experiment: the Figure 6
// 11-route table, a hop-by-payload sweep grid, collective and cluster
// queries, and the calibrated MD step-time model, each answered by the
// closed-form tier and (at des fidelity) cross-checked against the
// event-driven simulator with a per-row error column. The report is
// fully deterministic — no wall-clock numbers; the measured speedup
// lives in the benchmark gate's baseline (BENCH_gate.json).
func fastpath(sess *Session, quick bool) string {
	out := header("Fast path: closed-form analytic tier vs event-driven simulator")
	if sess.Faults != nil {
		return out + "refused: the analytic tier models a fault-free machine and cannot answer\n" +
			"under a fault plan; rerun without -faults to compare the tiers.\n"
	}
	analyticOnly := sess.fidelity() == FidelityAnalytic
	if analyticOnly {
		out += "fidelity: analytic (closed-form answers only; DES cross-check columns omitted)\n\n"
	} else {
		out += "fidelity: des (every analytic answer cross-checked against the event simulator)\n\n"
	}

	tor := topo.NewTorus(8, 8, 8)
	a := analytic.NewAnton(tor)
	exactRows, boundRows, violations := 0, 0, 0
	netRow := func(t *Table, label string, des, an sim.Dur, haveDES bool) {
		if !haveDES {
			t.Row(label, fmt.Sprintf("%.1f", an.Ns()))
			return
		}
		t.Row(label, fmt.Sprintf("%.1f", des.Ns()), fmt.Sprintf("%.1f", an.Ns()), errCell(des, an))
		exactRows++
		if des != an {
			violations++
		}
	}

	// Section 1: the Figure 6 11-route table.
	out += "Figure 6 routes (8x8x8, counted remote write from the origin):\n"
	var t *Table
	if analyticOnly {
		t = NewTable("route", "analytic (ns)")
	} else {
		t = NewTable("route", "DES (ns)", "analytic (ns)", "error")
	}
	routeDES := make([]sim.Dur, len(fastpathRoutes))
	if !analyticOnly {
		copy(routeDES, sweep(sess, len(fastpathRoutes), func(i int) sim.Dur {
			r := fastpathRoutes[i]
			return OneWayLatency(sess, r.dst, r.bytes)
		}))
	}
	for i, r := range fastpathRoutes {
		label := fmt.Sprintf("%v %dB", r.dst, r.bytes)
		netRow(t, label, routeDES[i], a.WriteLatency(topo.C(0, 0, 0), r.dst, r.bytes), !analyticOnly)
	}
	out += t.String()

	// Section 2: the hop-by-payload sweep grid along the Figure 5 path.
	hopsList := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if quick {
		hopsList = []int{0, 1, 2, 4, 8, 12}
	}
	sizes := []int{0, 64, 256}
	out += "\nHop-by-payload sweep grid (8x8x8, Figure 5 path):\n"
	if analyticOnly {
		t = NewTable("hops", "0B (ns)", "64B (ns)", "256B (ns)")
	} else {
		t = NewTable("hops", "0B DES", "0B analytic", "err", "64B DES", "64B analytic", "err", "256B DES", "256B analytic", "err")
	}
	type gridRow [3]sim.Dur
	gridDES := make([]gridRow, len(hopsList))
	if !analyticOnly {
		copy(gridDES, sweep(sess, len(hopsList), func(i int) gridRow {
			var r gridRow
			for k, b := range sizes {
				r[k] = OneWayLatency(sess, hopPath(hopsList[i]), b)
			}
			return r
		}))
	}
	for i, h := range hopsList {
		dst := hopPath(h)
		cells := []interface{}{h}
		for k, b := range sizes {
			an := a.WriteLatency(topo.C(0, 0, 0), dst, b)
			if analyticOnly {
				cells = append(cells, fmt.Sprintf("%.1f", an.Ns()))
				continue
			}
			des := gridDES[i][k]
			cells = append(cells, fmt.Sprintf("%.1f", des.Ns()), fmt.Sprintf("%.1f", an.Ns()), errCell(des, an))
			exactRows++
			if des != an {
				violations++
			}
		}
		t.Row(cells...)
	}
	out += t.String()

	// Section 3: Anton collective completion and cluster baseline queries.
	out += "\nCollective and InfiniBand-cluster queries:\n"
	if analyticOnly {
		t = NewTable("query", "analytic (us)")
	} else {
		t = NewTable("query", "DES (us)", "analytic (us)", "error")
	}
	usRow := func(label string, des func() sim.Dur, an sim.Dur) {
		if analyticOnly {
			t.Row(label, fmt.Sprintf("%.3f", an.Us()))
			return
		}
		d := des()
		t.Row(label, fmt.Sprintf("%.3f", d.Us()), fmt.Sprintf("%.3f", an.Us()), errCell(d, an))
		exactRows++
		if d != an {
			violations++
		}
	}
	for _, b := range []int{0, 32} {
		b := b
		usRow(fmt.Sprintf("Anton 512-node all-reduce %dB", b),
			func() sim.Dur { return antonAllReduce(sess, tor, b) },
			a.AllReduce(fastpathCollective(b)))
	}
	ib := analytic.NewCluster(512)
	usRow("cluster ping 32B",
		func() sim.Dur {
			return clusterDES(sess, 2, func(c *cluster.Cluster, done func(sim.Time)) { c.Send(0, 1, 32, done) })
		}, ib.Ping(32))
	usRow("cluster 2KB in 24 messages",
		func() sim.Dur {
			return clusterDES(sess, 2, func(c *cluster.Cluster, done func(sim.Time)) { c.TransferManyMessages(0, 1, 2048, 24, done) })
		}, ib.ManyMessages(2048, 24))
	if ibAR, err := ib.AllReduce(32); err == nil {
		usRow("cluster 512-rank all-reduce 32B",
			func() sim.Dur {
				return clusterDES(sess, 512, func(c *cluster.Cluster, done func(sim.Time)) { c.AllReduce(32, done) })
			}, ibAR)
	}
	usRow("cluster staged neighbour exchange 2200B",
		func() sim.Dur {
			return clusterDES(sess, 512, func(c *cluster.Cluster, done func(sim.Time)) { c.StagedNeighborExchange(2200, done) })
		}, ib.StagedNeighborExchange(2200))
	out += t.String()

	// Section 4: the calibrated MD step-time model. Calibration is the
	// tier's one-time DES cost (two reference runs); every query after it
	// is closed-form. quick calibrates a small machine.
	sTor, lo, hi, steps := topo.NewTorus(4, 4, 4), 2500, 6000, 4
	interior := []int{3000, 4000, 5000}
	if quick {
		sTor, lo, hi, steps = topo.NewTorus(2, 2, 2), 300, 600, 2
		interior = []int{450}
	}
	cfg := mdmap.DefaultConfig()
	cfg.MigrationInterval = 0
	cfg.Workers = sess.Workers
	out += fmt.Sprintf("\nMD step-time model (%v torus, calibrated at %d and %d atoms):\n", sTor, lo, hi)
	sm, err := analytic.CalibrateStep(sTor, cfg, lo, hi, analytic.StepOptions{NewSim: sess.NewSim, Steps: steps})
	if err != nil {
		out += fmt.Sprintf("calibration refused: %v\n", err)
		return out
	}
	kinds := []mdmap.StepKind{mdmap.RangeLimited, mdmap.LongRange}
	if analyticOnly {
		t = NewTable("atoms", "kind", "analytic (us)")
	} else {
		t = NewTable("atoms", "kind", "DES (us)", "analytic (us)", "error")
	}
	stepRow := func(atoms int, des map[mdmap.StepKind]sim.Dur) {
		for _, kind := range kinds {
			an, err := sm.StepTime(kind, atoms)
			if err != nil {
				t.Row(atoms, kind.String(), fmt.Sprintf("refused: %v", err))
				continue
			}
			if analyticOnly {
				t.Row(atoms, kind.String(), fmt.Sprintf("%.2f", an.Us()))
				continue
			}
			d := des[kind]
			t.Row(atoms, kind.String(), fmt.Sprintf("%.2f", d.Us()), fmt.Sprintf("%.2f", an.Us()), errCell(d, an))
			boundRows++
			if !withinBound(d, an, 0.05) {
				violations++
			}
		}
	}
	stepRow(lo, sm.RefLo)
	if !analyticOnly {
		interiorDES := sweep(sess, len(interior), func(i int) map[mdmap.StepKind]sim.Dur {
			return desStepKinds(sess, sTor, cfg, interior[i], steps)
		})
		for i, atoms := range interior {
			stepRow(atoms, interiorDES[i])
		}
	} else {
		for _, atoms := range interior {
			stepRow(atoms, nil)
		}
	}
	stepRow(hi, sm.RefHi)
	out += t.String()

	// The calibration fit, pinned by the golden: the two-point contention
	// slopes and the link-occupancy evidence that anchors them.
	out += "\ncalibration fit:\n"
	for _, kind := range kinds {
		out += fmt.Sprintf("  %-14s kappa %.6g ps/byte, residual %v\n", kind.String(), sm.Kappa[kind], sm.Resid[kind])
	}
	out += fmt.Sprintf("  link occupancy: %.1f measured bytes/step/node (anchor ratio %.4f),\n",
		sm.LinkStats.MeasuredBytesPerStep, sm.LinkStats.AnchorRatio)
	out += fmt.Sprintf("  peak link utilization %.1f%%, queued share %.1f%%, max queue wait %v\n",
		100*sm.LinkStats.PeakLinkUtilization, 100*sm.LinkStats.QueuedShare, sm.LinkStats.MaxQueueWait)

	// The error-bound contract, checked over every row above.
	if analyticOnly {
		out += "\nbound check: skipped (no DES cross-check at analytic fidelity)\n"
	} else if violations == 0 {
		out += fmt.Sprintf("\nbound check: %d network rows exact, %d step rows within the 5%% bound\n", exactRows, boundRows)
	} else {
		out += fmt.Sprintf("\nbound check: BOUND EXCEEDED on %d of %d rows\n", violations, exactRows+boundRows)
	}
	return out
}

func init() {
	register(Experiment{ID: "fastpath", Title: "analytic fast-path tier vs DES", run: fastpath, Analytic: true})
}
