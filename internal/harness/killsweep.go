package harness

import (
	"fmt"

	"anton/internal/cluster"
	"anton/internal/collective"
	"anton/internal/fault"
	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// The kill sweep quantifies hard-failure survival: permanent link and
// node deaths injected mid-run, survived by fault-aware rerouting plus
// the synchronization-counter watchdog on Anton, and by uplink failover
// plus degraded collectives on the InfiniBand baseline. The sweep
// reports the recovery cost — added collective latency, lost/re-issued
// packets, detour path stretch — as the number of dead links grows, and
// how long an MD run takes to re-stabilize after a mid-step kill.

// killList is the fixed, spatially spread set of torus links the sweep
// kills (on the 8x8x8 flagship machine and, by rank identity, on the
// cluster as uplink failures).
var killList = []fault.Link{
	{Node: 0, Port: topo.Port{Dim: topo.X, Dir: +1}},
	{Node: 9, Port: topo.Port{Dim: topo.Y, Dir: +1}},
	{Node: 18, Port: topo.Port{Dim: topo.Z, Dir: +1}},
	{Node: 27, Port: topo.Port{Dim: topo.X, Dir: -1}},
	{Node: 36, Port: topo.Port{Dim: topo.Y, Dir: -1}},
	{Node: 45, Port: topo.Port{Dim: topo.Z, Dir: -1}},
}

// killPlan kills the first k links of killList at time at.
func killPlan(k int, at sim.Time) fault.Plan {
	p := fault.Plan{Seed: 9, Watchdog: 15 * sim.Us}
	for _, l := range killList[:k] {
		p.KillLinks = append(p.KillLinks, fault.LinkKill{Link: l, At: at})
	}
	return p
}

// antonKillReduce runs the 512-node dimension-ordered all-reduce under
// plan p and returns its completion time and the recovery tallies.
func antonKillReduce(sess *Session, p fault.Plan, bytes int) (sim.Dur, machine.RecoveryStats) {
	s := faultSim(sess, p)
	m := machine.New(s, topo.NewTorus(8, 8, 8), noc.DefaultModel())
	ar := collective.NewAllReduce(m, collective.DefaultConfig(bytes))
	var done sim.Time
	ar.Run(nil, func(at sim.Time) { done = at })
	s.Run()
	return sim.Dur(done), m.Recovery()
}

// antonDetourPing measures one 0-byte counted remote write from (0,0,0)
// to (1,0,0) under plan p with kills applied from t=0: with 0:X+ dead
// this is the latency of the minimal surviving detour (the fault-free
// value is the paper's 162 ns).
func antonDetourPing(sess *Session, p fault.Plan) sim.Dur {
	s := faultSim(sess, p)
	m := machine.New(s, topo.NewTorus(8, 8, 8), noc.DefaultModel())
	src := packet.Client{Node: m.Torus.ID(topo.C(0, 0, 0)), Kind: packet.Slice0}
	dst := packet.Client{Node: m.Torus.ID(topo.C(1, 0, 0)), Kind: packet.Slice0}
	var done sim.Time
	m.Client(dst).Wait(0, 1, func() { done = s.Now() })
	m.Client(src).Write(dst, 0, 0, 0)
	s.Run()
	return sim.Dur(done)
}

// ibKillReduce runs the 512-rank recursive-doubling all-reduce under
// plan p (link kills read as rank uplink failures).
func ibKillReduce(sess *Session, p fault.Plan, bytes int) (sim.Dur, cluster.RecoveryStats) {
	s := faultSim(sess, p)
	c := cluster.New(s, 512, cluster.DDR2InfiniBand())
	var done sim.Time
	c.AllReduce(bytes, func(at sim.Time) { done = at })
	s.Run()
	return sim.Dur(done), c.Recovery()
}

// mdKillSteps runs a small MD mapping for steps steps under plan p and
// returns the per-step critical-path times.
func mdKillSteps(sess *Session, p fault.Plan, steps int) []sim.Dur {
	cfg := mdmap.DefaultConfig()
	cfg.Atoms = 4000
	cfg.MigrationInterval = 0
	cfg.GridN = 16
	mp := sess.newMapping(faultSim(sess, p), topo.NewTorus(4, 4, 4), cfg)
	out := make([]sim.Dur, steps)
	for i := range out {
		out[i] = mp.RunStep().Total
	}
	return out
}

func killsweep(sess *Session, quick bool) string {
	out := header("Kill sweep: recovery cost vs dead links and nodes (Anton vs InfiniBand)")
	ks := []int{0, 1, 2, 4, 6}
	mdSteps := 6
	if quick {
		ks = []int{0, 1, 6}
		mdSteps = 4
	}
	killAt := sim.Time(500 * sim.Ns)
	mdKillAt := sim.Time(30 * sim.Us)

	type row struct {
		ar    sim.Dur
		rec   machine.RecoveryStats
		ping  sim.Dur
		ibAr  sim.Dur
		ibRec cluster.RecoveryStats
	}
	rows := sweep(sess, len(ks), func(i int) row {
		var r row
		// Kills land mid-collective: the watchdog re-issues what the
		// dead links swallowed.
		p := killPlan(ks[i], killAt)
		r.ar, r.rec = antonKillReduce(sess, p, 32)
		r.ibAr, r.ibRec = ibKillReduce(sess, p, 32)
		// Detour stretch is measured with the same links dead from t=0.
		r.ping = antonDetourPing(sess, killPlan(ks[i], 0))
		return r
	})

	t := NewTable("dead links", "Anton 32B reduce (us)", "+vs intact", "lost", "reissued", "rerouted",
		"wdog fires", "detour ping (ns)", "IB 32B reduce (us)", "IB failovers")
	base := rows[0]
	for i, r := range rows {
		t.Row(fmt.Sprintf("%d", ks[i]),
			fmt.Sprintf("%.2f", r.ar.Us()),
			fmt.Sprintf("%+.2f", (r.ar-base.ar).Us()),
			fmt.Sprintf("%d", r.rec.Lost),
			fmt.Sprintf("%d", r.rec.Reissues),
			fmt.Sprintf("%d", r.rec.Rerouted),
			fmt.Sprintf("%d", r.rec.WatchdogFires),
			fmt.Sprintf("%.1f", r.ping.Ns()),
			fmt.Sprintf("%.2f", r.ibAr.Us()),
			fmt.Sprintf("%d", r.ibRec.FailedOver))
	}
	out += t.String()
	out += fmt.Sprintf("\nlinks killed at %.1f us mid-collective (watchdog %.0f us); the detour ping column\n"+
		"kills the same links at t=0 and measures the one-hop write over the minimal surviving\n"+
		"route (intact: 162.0 ns). IB reads a killed link as the rank's switch uplink failing over.\n",
		sim.Dur(killAt).Us(), (15 * sim.Us).Us())

	// A whole dead node: waits on its contributions complete degraded.
	nodePlan := fault.Plan{Seed: 9, Watchdog: 15 * sim.Us,
		KillNodes: []fault.NodeKill{{Node: 42, At: killAt}}}
	nAr, nRec := antonKillReduce(sess, nodePlan, 32)
	nIbAr, nIbRec := ibKillReduce(sess, nodePlan, 32)
	out += fmt.Sprintf("\ndead node (node 42 killed at %.1f us):\n", sim.Dur(killAt).Us())
	out += fmt.Sprintf("  Anton 32B reduce %.2f us  (%v)\n", nAr.Us(), nRec)
	out += fmt.Sprintf("  IB    32B reduce %.2f us  (%v)\n", nIbAr.Us(), nIbRec)

	// MD re-stabilization: compare a mid-run kill against the same kill
	// applied at t=0 (the degraded steady state). Steps that differ are
	// the transient the recovery machinery takes to re-converge.
	mid := mdKillSteps(sess, killPlan(1, mdKillAt), mdSteps)
	steady := mdKillSteps(sess, killPlan(1, 0), mdSteps)
	intact := mdKillSteps(sess, killPlan(0, 0), mdSteps)
	recoverSteps := 0
	for i := range mid {
		if mid[i] != steady[i] {
			recoverSteps = i + 1
		}
	}
	var midSum, intactSum sim.Dur
	for i := range mid {
		midSum += mid[i]
		intactSum += intact[i]
	}
	out += fmt.Sprintf("\nMD on 4x4x4 (4000 atoms), 0:X+ killed at %.0f us: %d of %d steps differ from the\n"+
		"kill-at-t=0 steady state before per-step times re-converge; average step %.2f us\n"+
		"vs %.2f us intact (%+.1f%%).\n",
		sim.Dur(mdKillAt).Us(), recoverSteps, mdSteps,
		(midSum / sim.Dur(mdSteps)).Us(), (intactSum / sim.Dur(mdSteps)).Us(),
		100*(float64(midSum)/float64(intactSum)-1))
	return out
}

func init() {
	register(Experiment{ID: "killsweep", Title: "hard-failure recovery cost vs dead links/nodes", run: killsweep})
}
