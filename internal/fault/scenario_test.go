package fault_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton/internal/cluster"
	"anton/internal/collective"
	"anton/internal/fault"
	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the scenario golden files with the current output")

// The scenario tests pin full text reports of small fault experiments —
// the plan, every probe latency, and the injector's fault-site tally —
// as golden files. The fault layer is bit-deterministic, so any diff
// means the fault model (or a model it perturbs) changed behaviour.
// After an intentional change, regenerate with:
//
//	go test ./internal/fault -run Scenario -update

// pingReport runs n sequential 0-byte counted remote writes from a to b
// on a 4x4x4 machine under plan, reporting each ping's latency.
func pingReport(b *strings.Builder, plan fault.Plan, a, dst topo.Coord, n int) *fault.Injector {
	s := sim.New()
	in := fault.Attach(s, plan)
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	src := packet.Client{Node: m.Torus.ID(a), Kind: packet.Slice0}
	d := packet.Client{Node: m.Torus.ID(dst), Kind: packet.Slice0}
	var round func(k int)
	round = func(k int) {
		if k == n {
			return
		}
		start := s.Now()
		m.Client(d).Wait(0, uint64(k+1), func() {
			fmt.Fprintf(b, "ping %2d: %7.1f ns\n", k, s.Now().Sub(start).Ns())
			round(k + 1)
		})
		m.Client(src).Write(d, 0, 0, 0)
	}
	round(0)
	s.Run()
	return in
}

// singleCorruptLink: one noisy link on the ping path (0:X+), every
// other link clean. The first hop of the two-hop route pays seeded
// retransmissions; the report shows which pings were hit and the
// fault-site tally names only the configured link.
func singleCorruptLink() string {
	plan := fault.MustParsePlan("seed=7,corrupt=0.2,retry=50ns,links=0:X+")
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: single corrupt link\nplan: %v\n", plan)
	b.WriteString("torus 4x4x4, 16 sequential pings (0,0,0) -> (2,0,0), 0B payload\n")
	in := pingReport(&b, plan, topo.C(0, 0, 0), topo.C(2, 0, 0), 16)
	fmt.Fprintf(&b, "stats: %v\n", in.Stats())
	return b.String()
}

// deadThenRecovered: the 0:X+ link is down for [200ns, 2us). Pings
// launch every 300 ns; those whose transfer begins during the outage
// wait for recovery plus one retry turnaround and drain in FIFO order,
// then the path returns to the fault-free latency.
func deadThenRecovered() string {
	plan := fault.MustParsePlan("seed=1,retry=50ns,down=0:X+@200ns:2us")
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: dead-then-recovered link\nplan: %v\n", plan)
	b.WriteString("torus 4x4x4, pings (0,0,0) -> (1,0,0) launched every 300 ns\n")

	s := sim.New()
	in := fault.Attach(s, plan)
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	src := packet.Client{Node: m.Torus.ID(topo.C(0, 0, 0)), Kind: packet.Slice0}
	dst := packet.Client{Node: m.Torus.ID(topo.C(1, 0, 0)), Kind: packet.Slice0}
	const n = 10
	type result struct{ launch, arrive sim.Time }
	results := make([]result, n)
	for k := 0; k < n; k++ {
		k := k
		launch := sim.Time(k) * sim.Time(300*sim.Ns)
		results[k].launch = launch
		// Writes traverse one link in order, so the (k+1)th counter
		// increment is the kth ping's arrival.
		m.Client(dst).Wait(0, uint64(k+1), func() { results[k].arrive = s.Now() })
		s.At(launch, sim.Func(func() { m.Client(src).Write(dst, 0, 0, 0) }))
	}
	s.Run()
	for k, r := range results {
		fmt.Fprintf(&b, "ping %2d: launch %6.0f ns  arrive %6.1f ns  latency %7.1f ns\n",
			k, sim.Dur(r.launch).Ns(), sim.Dur(r.arrive).Ns(), r.arrive.Sub(r.launch).Ns())
	}
	fmt.Fprintf(&b, "stats: %v\n", in.Stats())
	return b.String()
}

// clusterDrops: the InfiniBand model at a 1e-3 drop rate. A burst of
// 3000 sequential small messages sees a handful of seeded losses, each
// costing the full 10 us sender timeout — the report pins the mean and
// worst one-way latency and the drop count.
func clusterDrops() string {
	plan := fault.MustParsePlan("seed=3,drop=1e-3,timeout=10us")
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: cluster message drops\nplan: %v\n", plan)
	b.WriteString("2-rank InfiniBand cluster, 3000 sequential 0B sends rank 0 -> 1\n")

	s := sim.New()
	in := fault.Attach(s, plan)
	c := cluster.New(s, 2, cluster.DDR2InfiniBand())
	const n = 3000
	var total, worst sim.Dur
	var slow int
	base := c.Model.PingLatency()
	var round func(k int)
	round = func(k int) {
		if k == n {
			return
		}
		start := s.Now()
		c.Send(0, 1, 0, func(at sim.Time) {
			lat := at.Sub(start)
			total += lat
			if lat > worst {
				worst = lat
			}
			if lat > base {
				slow++
			}
			round(k + 1)
		})
	}
	round(0)
	s.Run()
	fmt.Fprintf(&b, "fault-free one-way: %.2f us\n", base.Us())
	fmt.Fprintf(&b, "mean  one-way: %.3f us\n", (total / n).Us())
	fmt.Fprintf(&b, "worst one-way: %.2f us\n", worst.Us())
	fmt.Fprintf(&b, "sends delayed by a timeout: %d of %d\n", slow, n)
	fmt.Fprintf(&b, "stats: %v\n", in.Stats())
	return b.String()
}

// stallBurst: transient lane stalls at a high rate on all links of the
// ping path; each stall adds exactly StallDur, so latencies are
// quantized at baseline + k*200ns.
func stallBurst() string {
	plan := fault.MustParsePlan("seed=11,stall=0.15,stalldur=200ns")
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: transient link stalls\nplan: %v\n", plan)
	b.WriteString("torus 4x4x4, 16 sequential pings (0,0,0) -> (2,0,0), 0B payload\n")
	in := pingReport(&b, plan, topo.C(0, 0, 0), topo.C(2, 0, 0), 16)
	fmt.Fprintf(&b, "stats: %v\n", in.Stats())
	return b.String()
}

// killedLinkAllReduce: a link killed mid-all-reduce on a 4x4x4 machine.
// The fault-aware tables detour subsequent traffic; anything caught on
// the dying link is re-issued by the counter watchdog. The report pins
// the degraded completion time against the intact one and the full
// recovery tally.
func killedLinkAllReduce() string {
	plan := fault.MustParsePlan("seed=9,killlink=0:X+@100ns,wdog=5us")
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: killed link mid-all-reduce\nplan: %v\n", plan)
	b.WriteString("torus 4x4x4, 32B dimension-ordered all-reduce, 0:X+ killed at 100 ns\n")
	run := func(p fault.Plan) (sim.Dur, machine.RecoveryStats) {
		s := sim.New()
		fault.Attach(s, p)
		m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
		ar := collective.NewAllReduce(m, collective.DefaultConfig(32))
		var done sim.Time
		ar.Run(nil, func(at sim.Time) { done = at })
		s.Run()
		return sim.Dur(done), m.Recovery()
	}
	intact, _ := run(fault.MustParsePlan("seed=9"))
	killed, rec := run(plan)
	fmt.Fprintf(&b, "intact all-reduce: %.3f us\n", intact.Us())
	fmt.Fprintf(&b, "killed all-reduce: %.3f us (%+.3f us)\n", killed.Us(), (killed - intact).Us())
	fmt.Fprintf(&b, "recovery: %v\n", rec)
	return b.String()
}

// deadNodeDegraded: a node dead from t=0. Counted writes addressed to it
// are lost, its own sends are lost at the source, and every wait that
// depends on it completes degraded via the watchdog instead of hanging
// the simulation.
func deadNodeDegraded() string {
	plan := fault.MustParsePlan("seed=9,killnode=21,wdog=2us")
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: dead node, degraded waits\nplan: %v\n", plan)
	b.WriteString("torus 4x4x4, node 21 dead from t=0, watchdog 2 us\n")

	s := sim.New()
	fault.Attach(s, plan)
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	cl := func(n topo.NodeID) packet.Client { return packet.Client{Node: n, Kind: packet.Slice0} }
	dead := topo.NodeID(21)

	// Three live nodes write to the dead node, whose software waits for
	// all three; a live node waits on a write the dead node will never
	// manage to send.
	var deadWait, liveWait sim.Time
	m.Client(cl(dead)).Wait(3, 3, func() { deadWait = s.Now() })
	for i := 0; i < 3; i++ {
		m.Client(cl(topo.NodeID(i))).Write(cl(dead), 3, 0, 8, 1)
	}
	m.Client(cl(0)).Wait(4, 2, func() { liveWait = s.Now() })
	m.Client(cl(1)).Write(cl(0), 4, 0, 8, 7)
	m.Client(cl(dead)).Write(cl(0), 4, 8, 8, 9)
	s.Run()

	fmt.Fprintf(&b, "wait on dead node completed degraded at %.3f us\n", sim.Dur(deadWait).Us())
	fmt.Fprintf(&b, "live wait on a dead source completed degraded at %.3f us\n", sim.Dur(liveWait).Us())
	fmt.Fprintf(&b, "live write payload stored: %v, dead source's address untouched: %v\n",
		m.Client(cl(0)).Mem(0, 1)[0], m.Client(cl(0)).Mem(8, 1)[0])
	fmt.Fprintf(&b, "recovery: %v\n", m.Recovery())
	return b.String()
}

func TestScenarioGoldens(t *testing.T) {
	scenarios := []struct {
		name string
		run  func() string
	}{
		{"single_corrupt_link", singleCorruptLink},
		{"dead_then_recovered", deadThenRecovered},
		{"cluster_drops", clusterDrops},
		{"stall_burst", stallBurst},
		{"killed_link_allreduce", killedLinkAllReduce},
		{"dead_node_degraded", deadNodeDegraded},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.run()
			// The whole point: a second run is byte-identical.
			if again := sc.run(); again != got {
				t.Fatalf("scenario %s is nondeterministic:\n--- first ---\n%s--- second ---\n%s", sc.name, got, again)
			}
			path := filepath.Join("testdata", sc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test ./internal/fault -run Scenario -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s — if the fault-model change is intentional, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
					sc.name, path, got, want)
			}
		})
	}
}
