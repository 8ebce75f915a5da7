package harness

import (
	"fmt"

	"anton/internal/mdmap"
	"anton/internal/sim"
	"anton/internal/topo"
)

// scaling reproduces the paper's framing claim rather than a specific
// figure: strong scaling of a fixed-size MD problem is limited by
// communication latency, not compute throughput. The same 23,558-atom
// system is mapped onto machines from 64 to 512 nodes; per-node compute
// shrinks 8x while the communication share of the step grows.
func scaling(sess *Session, quick bool) string {
	out := header("Strong scaling: fixed 23,558-atom system vs machine size")
	// The distributed FFT requires cubic machines, so the sweep doubles
	// the torus side: 8, 64, 512 nodes with a matching grid resolution.
	configs := []struct {
		tor   topo.Torus
		gridN int
	}{
		{topo.NewTorus(2, 2, 2), 8},
		{topo.NewTorus(4, 4, 4), 16},
		{topo.NewTorus(8, 8, 8), 32},
	}
	t := NewTable("nodes", "avg step (us)", "comm (us)", "comm share", "atoms/node")
	type point struct {
		nodes       int
		total, comm sim.Dur
	}
	// Each machine size maps and steps its own simulator instance; the
	// sweep runs on the experiment worker pool.
	pts := sweep(sess, len(configs), func(k int) point {
		c := configs[k]
		cfg := mdmap.DefaultConfig()
		cfg.MigrationInterval = 0
		cfg.GridN = c.gridN
		mp := sess.newMapping(sess.NewSim(), c.tor, cfg)
		rl := mp.RunStep()
		lr := mp.RunStep()
		return point{c.tor.Nodes(), (rl.Total + lr.Total) / 2, (rl.Comm + lr.Comm) / 2}
	})
	for k, p := range pts {
		t.Row(fmt.Sprintf("%d (%v)", p.nodes, configs[k].tor),
			fmt.Sprintf("%.2f", p.total.Us()),
			fmt.Sprintf("%.2f", p.comm.Us()),
			fmt.Sprintf("%.0f%%", 100*float64(p.comm)/float64(p.total)),
			23558/p.nodes)
	}
	out += t.String()
	speedup := float64(pts[0].total) / float64(pts[len(pts)-1].total)
	out += fmt.Sprintf("\n64x more nodes yields %.1fx speedup: the residual is almost entirely\n"+
		"communication latency, the effect the paper's Introduction describes\n", speedup)
	return out
}

func init() {
	register(Experiment{ID: "scaling", Title: "strong scaling of a fixed problem", run: scaling})
}
