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

// The fault sweep quantifies the claim behind the paper's lossless
// network: Anton repairs flit corruption with a cheap link-level retry
// (tens of nanoseconds, paid only on the affected link), while a
// commodity fabric recovers lost messages with sender timeouts that
// cost four orders of magnitude more than the message itself. Sweeping
// the injected error rate shows how slowly Anton's 162 ns path and
// step rate degrade compared to the InfiniBand baseline.

// SweepFaultPlan is the plan the fault sweep injects at a given error
// rate: flit corruption at the rate with a 50 ns link-level retry
// turnaround, transient link stalls at a tenth of the rate (200 ns
// each), and InfiniBand message drops at the same rate with a 10 us
// sender retransmission timeout. Seed 1, so every run of the sweep is
// bit-identical.
func SweepFaultPlan(rate float64) fault.Plan {
	return fault.Plan{
		Seed:         1,
		CorruptRate:  rate,
		RetryLatency: 50 * sim.Ns,
		StallRate:    rate / 10,
		StallDur:     200 * sim.Ns,
		DropRate:     rate,
		DropTimeout:  10 * sim.Us,
	}
}

// faultSim builds a fresh simulator with plan attached. The sweep sets
// its plans explicitly rather than through the session fault plan, so a
// -faults flag (or a request plan) does not double-inject here; only the
// session's abort hook carries over.
func faultSim(sess *Session, p fault.Plan) *sim.Sim {
	s := sim.New()
	sess.armAbort(s)
	fault.Attach(s, p)
	return s
}

// antonPingMean runs n sequential one-X-hop counted remote writes on a
// 512-node machine and returns the mean software-to-software latency:
// the 162 ns path of Figure 6, degraded by whatever faults hit the
// link.
func antonPingMean(sess *Session, p fault.Plan, n int) sim.Dur {
	s := faultSim(sess, p)
	m := machine.Default512(s)
	src := packet.Client{Node: m.Torus.ID(topo.C(0, 0, 0)), Kind: packet.Slice0}
	dst := packet.Client{Node: m.Torus.ID(topo.C(1, 0, 0)), Kind: packet.Slice0}
	var total sim.Dur
	var round func(k int)
	round = func(k int) {
		if k == n {
			return
		}
		start := s.Now()
		m.Client(dst).Wait(0, uint64(k+1), func() {
			total += s.Now().Sub(start)
			round(k + 1)
		})
		m.Client(src).Write(dst, 0, 0, 0)
	}
	round(0)
	s.Run()
	return total / sim.Dur(n)
}

// antonAllReduceFault measures the dimension-ordered 512-node global
// all-reduce under plan p.
func antonAllReduceFault(sess *Session, p fault.Plan, bytes int) sim.Dur {
	s := faultSim(sess, p)
	m := machine.New(s, topo.NewTorus(8, 8, 8), noc.DefaultModel())
	ar := collective.NewAllReduce(m, collective.DefaultConfig(bytes))
	var done sim.Time
	ar.Run(nil, func(at sim.Time) { done = at })
	s.Run()
	return sim.Dur(done)
}

// antonStepFault maps a reduced MD system onto an 8-node machine under
// plan p and returns the average MD step time (one range-limited, one
// long-range step), the quantity behind the iteration rate. The system
// is deliberately small — the sweep needs the *relative* degradation
// per rate, and a small mapping keeps the five-rate sweep cheap.
func antonStepFault(sess *Session, p fault.Plan) sim.Dur {
	cfg := mdmap.DefaultConfig()
	cfg.Atoms = 4000
	cfg.MigrationInterval = 0
	cfg.GridN = 8
	mp := sess.newMapping(faultSim(sess, p), topo.NewTorus(2, 2, 2), cfg)
	rl := mp.RunStep()
	lr := mp.RunStep()
	return (rl.Total + lr.Total) / 2
}

// ibPingMean runs n sequential small-message sends between two cluster
// ranks and returns the mean one-way latency including any
// timeout-and-retransmit recoveries.
func ibPingMean(sess *Session, p fault.Plan, n int) sim.Dur {
	s := faultSim(sess, p)
	c := cluster.New(s, 2, cluster.DDR2InfiniBand())
	var total sim.Dur
	var round func(k int)
	round = func(k int) {
		if k == n {
			return
		}
		start := s.Now()
		c.Send(0, 1, 0, func(at sim.Time) {
			total += at.Sub(start)
			round(k + 1)
		})
	}
	round(0)
	s.Run()
	return total / sim.Dur(n)
}

// ibAllReduceFault measures the 512-rank recursive-doubling all-reduce
// under plan p.
func ibAllReduceFault(sess *Session, p fault.Plan, bytes int) sim.Dur {
	s := faultSim(sess, p)
	c := cluster.New(s, 512, cluster.DDR2InfiniBand())
	var done sim.Time
	c.AllReduce(bytes, func(at sim.Time) { done = at })
	s.Run()
	return sim.Dur(done)
}

func faultsweep(sess *Session, quick bool) string {
	out := header("Fault sweep: latency and iteration-rate degradation vs injected error rate")
	rates := []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}
	pings := 1000
	if quick {
		rates = []float64{0, 1e-3, 1e-2}
		pings = 200
	}
	type row struct {
		ping, ar, step, ibPing, ibAr sim.Dur
	}
	// Every rate owns private simulator instances (one per metric), so
	// the sweep runs on the experiment worker pool and the report is
	// byte-identical at any worker count.
	rows := sweep(sess, len(rates), func(i int) row {
		p := SweepFaultPlan(rates[i])
		return row{
			ping:   antonPingMean(sess, p, pings),
			ar:     antonAllReduceFault(sess, p, 32),
			step:   antonStepFault(sess, p),
			ibPing: ibPingMean(sess, p, pings),
			ibAr:   ibAllReduceFault(sess, p, 32),
		}
	})
	t := NewTable("error rate", "Anton ping (ns)", "Anton 32B reduce (us)", "Anton step (us)",
		"steps/s", "IB ping (us)", "IB 32B reduce (us)")
	for i, r := range rows {
		t.Row(fmt.Sprintf("%g", rates[i]),
			fmt.Sprintf("%.1f", r.ping.Ns()),
			fmt.Sprintf("%.2f", r.ar.Us()),
			fmt.Sprintf("%.1f", r.step.Us()),
			fmt.Sprintf("%.0f", 1e6/r.step.Us()),
			fmt.Sprintf("%.2f", r.ibPing.Us()),
			fmt.Sprintf("%.1f", r.ibAr.Us()))
	}
	out += t.String()
	base, worst := rows[0], rows[len(rows)-1]
	pct := func(v, b sim.Dur) float64 { return 100 * (float64(v)/float64(b) - 1) }
	out += "\ninjected per link traversal: CRC flit corruption (repaired by link-level retry,\n" +
		"50 ns turnaround), transient stalls at rate/10 (200 ns); per IB message: drops\n" +
		"recovered by a 10 us sender timeout. Seed 1; the zero row is the fault-free baseline.\n"
	out += fmt.Sprintf("at rate %g: Anton ping %+.1f%%, Anton step %+.1f%%, IB ping %+.1f%%, IB reduce %+.1f%%\n",
		rates[len(rates)-1], pct(worst.ping, base.ping), pct(worst.step, base.step),
		pct(worst.ibPing, base.ibPing), pct(worst.ibAr, base.ibAr))
	return out
}

func init() {
	register(Experiment{ID: "faultsweep", Title: "degradation vs injected error rate", run: faultsweep})
}
