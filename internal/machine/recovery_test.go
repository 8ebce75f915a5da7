package machine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton/internal/fault"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// hardMachine builds a 4x4x4 machine under the given hard-fault plan.
func hardMachine(t *testing.T, plan string) *Machine {
	t.Helper()
	s := sim.New()
	fault.Attach(s, fault.MustParsePlan(plan))
	return New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
}

// A write across a link that is dead from time zero must detour around
// it and still complete — no deadlock, no loss — and the detour route
// must be exactly one surviving-graph-minimal route longer than the
// direct one.
func TestKilledLinkDetourCompletes(t *testing.T) {
	m := hardMachine(t, "seed=1,killlink=0:X+@0ns")
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	var avail sim.Time = -1
	m.Client(slice0(b)).Wait(7, 1, func() { avail = m.Sim.Now() })
	m.Client(slice0(a)).Write(slice0(b), 7, 0, 0)
	m.Sim.Run()
	if avail < 0 {
		t.Fatal("write across a killed link never delivered")
	}
	direct := 162 * sim.Ns
	if got := avail.Sub(0); got <= direct {
		t.Fatalf("detour latency %v not longer than the direct route's %v", got, direct)
	}
	rec := m.Recovery()
	if rec.Lost != 0 || rec.Degraded != 0 {
		t.Fatalf("pre-dead link should reroute, not lose: %v", rec)
	}
}

// A link killed while a long stream is in flight loses the packets
// caught on it; the watchdog must detect the shortfall and re-issue
// exactly the lost writes over the detour, completing the wait with the
// correct payload.
func TestWatchdogReissuesMidFlightLoss(t *testing.T) {
	// Kill the 0:X+ link at 1us while 40 back-to-back writes from node
	// (0,0,0) to (1,0,0) are streaming across it.
	m := hardMachine(t, "seed=1,killlink=0:X+@1us,wdog=5us")
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	const n = 40
	var avail sim.Time = -1
	m.Client(slice0(b)).Wait(7, n, func() { avail = m.Sim.Now() })
	for i := 0; i < n; i++ {
		m.Client(slice0(a)).Write(slice0(b), 7, i, 256, float64(i))
	}
	m.Sim.Run()
	if avail < 0 {
		t.Fatalf("stream across a mid-flight kill never completed: recovery %v, counter %d/%d",
			m.Recovery(), m.Client(slice0(b)).Counter(7).Value(), n)
	}
	rec := m.Recovery()
	if rec.Lost == 0 {
		t.Fatalf("kill at 1us lost nothing out of %d writes: %v", n, rec)
	}
	if rec.Reissues == 0 || rec.Reissues != rec.Lost {
		t.Fatalf("reissues %d != lost %d (all losses were recoverable): %v", rec.Reissues, rec.Lost, rec)
	}
	if rec.Degraded != 0 {
		t.Fatalf("recoverable losses must not degrade: %v", rec)
	}
	// Every payload must have landed despite the loss and re-issue.
	mem := m.Client(slice0(b)).Mem(0, n)
	for i, v := range mem {
		if v != float64(i) {
			t.Fatalf("word %d = %v after recovery, want %d", i, v, i)
		}
	}
}

// Losses and re-issues are reported through RecoveryStats and the
// metrics recorder only: a killed-link run writes nothing to stdout.
func TestRecoveryWritesNothingToStdout(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()

	m := hardMachine(t, "seed=1,killlink=0:X+@1us,wdog=5us")
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	for i := 0; i < 40; i++ {
		m.Client(slice0(a)).Write(slice0(b), 7, i, 256, float64(i))
	}
	m.Client(slice0(b)).Wait(7, 40, func() {})
	m.Sim.Run()
	os.Stdout = saved

	if rec := m.Recovery(); rec.Lost == 0 || rec.Reissues == 0 {
		t.Fatalf("the kill should lose and re-issue writes: %v", rec)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("recovery wrote %d bytes to stdout:\n%s", len(out), out)
	}
}

// Writes addressed to a dead node can never be delivered; the sender
// side is unaffected, and a waiter on the dead node completes degraded
// so cross-node control flow keeps advancing.
func TestDeadNodeDegradedWait(t *testing.T) {
	m := hardMachine(t, "seed=1,killnode=21@0ns,wdog=2us")
	dead := topo.NodeID(21)
	var fired sim.Time = -1
	// The dead node's software arms a wait for 3 writes that can never
	// arrive.
	m.Client(slice0(dead)).Wait(3, 3, func() { fired = m.Sim.Now() })
	for i := 0; i < 3; i++ {
		m.Client(slice0(topo.NodeID(i))).Write(slice0(dead), 3, 0, 8, 1)
	}
	m.Sim.Run()
	if fired < 0 {
		t.Fatalf("wait on dead node never completed: %v", m.Recovery())
	}
	rec := m.Recovery()
	if rec.Lost != 3 {
		t.Fatalf("3 writes to a dead node, lost %d: %v", rec.Lost, rec)
	}
	if rec.Degraded != 1 || rec.DegradedInc != 3 {
		t.Fatalf("expected one degraded completion synthesizing 3 increments: %v", rec)
	}
	if rec.Reissues != 0 {
		t.Fatalf("writes to a dead node must never be re-issued: %v", rec)
	}
}

// A send issued by a dead node is lost at the source and books a
// permanent deficit at its destination, whose watchdog then completes
// the wait degraded.
func TestDeadSourceDeficit(t *testing.T) {
	m := hardMachine(t, "seed=1,killnode=5@0ns,wdog=2us")
	dst := slice0(0)
	var fired sim.Time = -1
	m.Client(dst).Wait(4, 2, func() { fired = m.Sim.Now() })
	m.Client(slice0(1)).Write(dst, 4, 0, 8, 7) // arrives
	m.Client(slice0(5)).Write(dst, 4, 8, 8, 9) // source is dead
	m.Sim.Run()
	if fired < 0 {
		t.Fatalf("wait depending on a dead source never completed: %v", m.Recovery())
	}
	rec := m.Recovery()
	if rec.Degraded != 1 || rec.DegradedInc != 1 {
		t.Fatalf("expected exactly the dead source's increment synthesized: %v", rec)
	}
	if got := m.Client(dst).Mem(0, 1)[0]; got != 7 {
		t.Fatalf("live write payload = %v, want 7", got)
	}
	if got := m.Client(dst).Mem(8, 1)[0]; got != 0 {
		t.Fatalf("dead source's address = %v, want untouched 0", got)
	}
}

// In-order packets lost to a kill must release their ordering tickets:
// later in-order packets on the same pair still commit (in order among
// the survivors) instead of stalling forever.
func TestInOrderTicketsReleasedOnLoss(t *testing.T) {
	m := hardMachine(t, "seed=1,killlink=0:X+@1us,wdog=5us")
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	const n = 30
	delivered := 0
	m.OnDeliver = func(pkt *packet.Packet, dst packet.Client, at sim.Time) { delivered++ }
	var doneAt sim.Time = -1
	m.Client(slice0(b)).Wait(7, n, func() { doneAt = m.Sim.Now() })
	for i := 0; i < n; i++ {
		m.Client(slice0(a)).Send(&packet.Packet{
			Kind: packet.Write, Dst: slice0(b), Multicast: packet.NoMulticast,
			Counter: 7, Addr: i, Bytes: 256, InOrder: true, Payload: []float64{float64(i)},
		})
	}
	m.Sim.Run()
	if doneAt < 0 {
		t.Fatalf("in-order stream never completed after loss: %v (delivered %d/%d)",
			m.Recovery(), delivered, n)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d in-order writes", delivered, n)
	}
}

// A multicast pattern with a branch that is dead at fan-out time falls
// back to unicast copies over the detour routes: every destination still
// receives the write without any watchdog involvement.
func TestMulticastDeadBranchReroutes(t *testing.T) {
	m := hardMachine(t, "seed=1,killlink=0:X+@0ns")
	// Pattern: node 0 fans out locally and over X+ to node 1, which
	// delivers locally — the X+ branch is dead from the start.
	root := m.NodeAt(topo.C(0, 0, 0)).ID
	next := m.NodeAt(topo.C(1, 0, 0)).ID
	xPlus := topo.Port{Dim: topo.X, Dir: +1}
	m.SetMulticast(root, 1, packet.McEntry{Local: []packet.ClientKind{packet.Slice1}, Out: []topo.Port{xPlus}})
	m.SetMulticast(next, 1, packet.McEntry{Local: []packet.ClientKind{packet.Slice1}})
	got := 0
	for _, n := range []topo.NodeID{root, next} {
		m.Client(packet.Client{Node: n, Kind: packet.Slice1}).Wait(2, 1, func() { got++ })
	}
	m.Client(slice0(root)).MulticastWrite(1, 2, 0, 8, 4.5)
	m.Sim.Run()
	if got != 2 {
		t.Fatalf("%d of 2 multicast destinations reached: %v", got, m.Recovery())
	}
	rec := m.Recovery()
	if rec.Rerouted == 0 {
		t.Fatalf("dead branch should have been rerouted unicast: %v", rec)
	}
	if rec.WatchdogFires != 0 || rec.Lost != 0 {
		t.Fatalf("fan-out reroute must not lose packets or trip the watchdog: %v", rec)
	}
	if v := m.Client(packet.Client{Node: next, Kind: packet.Slice1}).Mem(0, 1)[0]; v != 4.5 {
		t.Fatalf("rerouted multicast payload = %v, want 4.5", v)
	}
}

// An in-order multicast rerouted around a dead branch must carry its
// per-destination ticket into the unicast copies. The pair already has
// one committed in-order write, so a copy that loses its ticket (and
// falls back to the zero value) claims an already-consumed slot and
// wedges the pair's ledger forever — the regression this test pins.
func TestMulticastRerouteKeepsInOrderTicket(t *testing.T) {
	m := hardMachine(t, "seed=1,killlink=0:X+@0ns,wdog=5us")
	root := m.NodeAt(topo.C(0, 0, 0)).ID
	next := m.NodeAt(topo.C(1, 0, 0)).ID
	xPlus := topo.Port{Dim: topo.X, Dir: +1}
	m.SetMulticast(root, 1, packet.McEntry{Local: []packet.ClientKind{packet.Slice1}, Out: []topo.Port{xPlus}})
	m.SetMulticast(next, 1, packet.McEntry{Local: []packet.ClientKind{packet.Slice1}})
	dst := packet.Client{Node: next, Kind: packet.Slice1}
	var doneAt sim.Time = -1
	m.Client(dst).Wait(2, 2, func() { doneAt = m.Sim.Now() })
	// Ticket 0 on the pair: a plain in-order write over the detour.
	m.Client(slice0(root)).Send(&packet.Packet{
		Kind: packet.Write, Dst: dst, Multicast: packet.NoMulticast,
		Counter: 2, Addr: 0, Bytes: 8, InOrder: true, Payload: []float64{1.5},
	})
	// Ticket 1: an in-order multicast whose X+ branch reroutes unicast.
	m.Client(slice0(root)).Send(&packet.Packet{
		Kind: packet.Write, Multicast: 1,
		Counter: 2, Addr: 1, Bytes: 8, InOrder: true, Payload: []float64{2.5},
	})
	m.Sim.Run()
	if doneAt < 0 {
		t.Fatalf("in-order multicast over a dead branch never completed: %v", m.Recovery())
	}
	rec := m.Recovery()
	if rec.WatchdogFires != 0 || rec.Lost != 0 {
		t.Fatalf("reroute must not lose packets or trip the watchdog: %v", rec)
	}
	mem := m.Client(dst).Mem(0, 2)
	if mem[0] != 1.5 || mem[1] != 2.5 {
		t.Fatalf("delivered memory = %v, want [1.5 2.5]", mem)
	}
}

// The whole recovery pipeline is deterministic: two identical runs under
// the same kill plan produce identical completion times, recovery stats,
// and memory contents.
func TestRecoveryDeterministic(t *testing.T) {
	run := func() (sim.Time, RecoveryStats, []float64) {
		m := hardMachine(t, "seed=3,killlink=0:X+@1us;21:Y-@500ns,killnode=42@2us,wdog=4us")
		a := m.NodeAt(topo.C(0, 0, 0)).ID
		b := m.NodeAt(topo.C(1, 0, 0)).ID
		const n = 25
		var doneAt sim.Time = -1
		m.Client(slice0(b)).Wait(7, n, func() { doneAt = m.Sim.Now() })
		for i := 0; i < n; i++ {
			m.Client(slice0(a)).Write(slice0(b), 7, i, 256, float64(i)*0.5)
		}
		// Traffic involving the doomed node too.
		m.Client(slice0(42)).Write(slice0(a), 9, 0, 8, 1)
		m.Client(slice0(a)).Write(slice0(42), 9, 0, 8, 1)
		end := m.Sim.Run()
		if doneAt < 0 {
			t.Fatalf("run never completed: %v", m.Recovery())
		}
		mem := append([]float64(nil), m.Client(slice0(b)).Mem(0, n)...)
		_ = end
		return doneAt, m.Recovery(), mem
	}
	t1, r1, m1 := run()
	t2, r2, m2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("nondeterministic recovery: (%v, %v) vs (%v, %v)", t1, r1, t2, r2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("memory word %d differs: %v vs %v", i, m1[i], m2[i])
		}
	}
}

// A plan with kills that all target nodes beyond this machine leaves the
// hard path enabled but inert: traffic is routed by the (fault-free)
// tables and nothing is lost.
func TestOutOfRangeKillsIgnored(t *testing.T) {
	m := hardMachine(t, "seed=1,killlink=500:X+@0ns,killnode=400@0ns")
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(2, 1, 0)).ID
	var avail sim.Time = -1
	m.Client(slice0(b)).Wait(7, 1, func() { avail = m.Sim.Now() })
	m.Client(slice0(a)).Write(slice0(b), 7, 0, 16)
	m.Sim.Run()
	if avail < 0 {
		t.Fatal("write never delivered under out-of-range kills")
	}
	if rec := m.Recovery(); rec.Lost != 0 || rec.WatchdogFires != 0 {
		t.Fatalf("out-of-range kills perturbed the machine: %v", rec)
	}
}

// recoverySeeds is the number of seeds in the hard-failure replay
// battery: TestRecoveryRunUntilStress runs the first 40 of them under
// -short, TestHardPathTrajectoryGolden pins all of them.
const recoverySeeds = 300

// recoveryTrajectory runs one seed of the hard-failure replay battery and
// returns its trajectory log and recovery tally. The seed derives a
// torus, a fault-plan class — none, soft corruption+stalls, a scheduled
// outage, a killed link, or a killed node — and a spray of counted
// writes with registered waits sized to the exactly reachable targets.
// With stop set, the run stops three times with RunUntil while traffic
// (and, for kill classes, watchdog recovery) is in flight before it
// runs to the end. With record set, the machine carries a metrics
// recorder, which must record events and leave the log unchanged. The
// log holds every send, delivery and wait completion with its time, then
// the traffic stats, the recovery tally, the final clock, Fired() and
// Pending(). Every run must end quiescent with its conservation laws
// holding (checkQuiescent).
func recoveryTrajectory(t *testing.T, seed int, stop, record bool) (string, RecoveryStats) {
	t.Helper()
	shapes := [][3]int{{2, 2, 2}, {4, 2, 2}, {4, 4, 2}, {4, 4, 4}}

	type ctrKey struct {
		c   packet.Client
		ctr packet.CounterID
	}

	sd := int64(seed)*104729 + 13
	rng := rand.New(rand.NewSource(sd))
	shape := shapes[rng.Intn(len(shapes))]
	tor := topo.NewTorus(shape[0], shape[1], shape[2])
	nodes := tor.Nodes()

	plan := fault.Plan{Seed: uint64(sd)}
	switch rng.Intn(5) {
	case 0:
		// fault-free
	case 1:
		plan.CorruptRate = 0.02
		plan.RetryLatency = 30 * sim.Ns
		plan.StallRate = 0.01
		plan.StallDur = 100 * sim.Ns
	case 2:
		l := fault.Link{Node: rng.Intn(nodes), Port: topo.Port{Dim: topo.X, Dir: +1}}
		plan.Down = []fault.Window{{Link: l, From: sim.Time(400 * sim.Ns), Until: sim.Time(2 * sim.Us)}}
	case 3:
		l := fault.Link{Node: rng.Intn(nodes), Port: topo.Port{Dim: topo.Y, Dir: -1}}
		plan.KillLinks = []fault.LinkKill{{Link: l, At: sim.Time(1 * sim.Us)}}
		plan.Watchdog = 15 * sim.Us
	case 4:
		plan.KillNodes = []fault.NodeKill{{Node: rng.Intn(nodes), At: sim.Time(1 * sim.Us)}}
		plan.Watchdog = 15 * sim.Us
	}

	s := sim.New()
	if !plan.IsZero() || plan.Seed != 0 {
		fault.Attach(s, plan)
	}
	m := New(s, tor, noc.DefaultModel())
	if record {
		m.Metrics = metrics.New()
	}

	var log strings.Builder
	m.OnSend = func(pkt *packet.Packet, at sim.Time) {
		fmt.Fprintf(&log, "S %d %s %v\n", pkt.Seq, pkt.Tag, at)
	}
	m.OnDeliver = func(pkt *packet.Packet, dst packet.Client, at sim.Time) {
		fmt.Fprintf(&log, "D %d %s %v %v\n", pkt.Seq, pkt.Tag, dst, at)
	}

	expected := make(map[ctrKey]uint64)
	order := make([]ctrKey, 0, 32)
	const sends = 80
	for i := 0; i < sends; i++ {
		srcNode := topo.NodeID(rng.Intn(nodes))
		dst := packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Slice(rng.Intn(4))}
		ctr := packet.CounterID(rng.Intn(4))
		at := sim.Time(rng.Int63n(int64(3 * sim.Us)))
		bytes := rng.Intn(257)
		inOrder := rng.Intn(3) == 0
		tag := fmt.Sprintf("p%d", i)
		key := ctrKey{dst, ctr}
		if expected[key] == 0 {
			order = append(order, key)
		}
		expected[key]++
		src := m.Client(packet.Client{Node: srcNode, Kind: packet.Slice0})
		s.At(at, sim.Func(func() {
			src.Send(&packet.Packet{
				Kind: packet.Write, Dst: dst, Multicast: packet.NoMulticast,
				Counter: ctr, Addr: 8 * (i % 32), Bytes: bytes, InOrder: inOrder, Tag: tag,
			})
		}))
	}
	// Register a wait per (client, counter) at its exactly reachable
	// target; under kill plans the watchdog completes stalled waits by
	// re-issue or degradation, so every wait still fires.
	for _, key := range order {
		key := key
		target := expected[key]
		m.Client(key.c).Wait(key.ctr, target, func() {
			fmt.Fprintf(&log, "W %v %d %d %v\n", key.c, key.ctr, target, s.Now())
		})
	}

	if stop {
		for _, deadline := range []sim.Time{sim.Time(800 * sim.Ns), sim.Time(2 * sim.Us), sim.Time(5 * sim.Us)} {
			if s.RunUntil(deadline) {
				break
			}
			if s.Now() != deadline {
				t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, deadline, s.Now())
			}
		}
	}
	s.Run()
	st, rec := m.Stats(), m.Recovery()
	fmt.Fprintf(&log, "stats %d %d %d %d\n", st.Sent, st.Received, st.SentBytes, st.RecvBytes)
	fmt.Fprintf(&log, "recovery %v\n", rec)
	fmt.Fprintf(&log, "end %v %d pending=%d\n", s.Now(), s.Fired(), s.Pending())
	var counted uint64
	for _, key := range order {
		counted += m.Client(key.c).Counter(key.ctr).Value()
	}
	if err := checkQuiescent(m, sends, counted); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if record && len(m.Metrics.Events()) == 0 {
		t.Fatalf("seed %d: the recorder saw no events", seed)
	}
	return log.String(), rec
}

// checkQuiescent checks a drained machine's conservation laws, given the
// number of first sends and the summed values of every counter they
// target:
//   - every unicast injection, first send or re-issue, commits or is
//     booked lost, exactly once, and no event is left queued;
//   - counter increments equal counted commits plus the increments
//     degraded completions synthesized;
//   - every in-order ledger and every deficit entry's re-issue list is
//     empty.
func checkQuiescent(m *Machine, sends, counted uint64) error {
	st, rec := m.Stats(), m.Recovery()
	if in, out := sends+rec.Reissues, st.Received+rec.Lost; in != out || m.Sim.Pending() != 0 {
		return fmt.Errorf("%d sends + %d reissues != %d received + %d lost, or %d events pending",
			sends, rec.Reissues, st.Received, rec.Lost, m.Sim.Pending())
	}
	if counted != st.Received+rec.DegradedInc {
		return fmt.Errorf("counters sum to %d, want %d received + %d degraded increments",
			counted, st.Received, rec.DegradedInc)
	}
	for key, od := range m.ordDst {
		if len(od.pending) != 0 {
			return fmt.Errorf("in-order ledger %v -> %v holds %d uncommitted packets", key.src, key.dst, len(od.pending))
		}
	}
	for key, d := range m.deficit {
		if len(d.lost) != 0 {
			return fmt.Errorf("deficit %+v holds %d writes never re-issued", key, len(d.lost))
		}
	}
	return nil
}

// TestRecoveryRunUntilStress is a replay battery for hard-failure
// recovery: for each seed, the trajectory of a run stopped three times
// with RunUntil while traffic and recovery are in flight — send stream,
// delivery log, wait completions, recovery tally, final clock — must
// match a straight Run of the same seed.
func TestRecoveryRunUntilStress(t *testing.T) {
	seeds := recoverySeeds
	if testing.Short() {
		seeds = 40
	}
	var recovered uint64
	for seed := 0; seed < seeds; seed++ {
		want, _ := recoveryTrajectory(t, seed, false, false)
		got, rec := recoveryTrajectory(t, seed, true, false)
		if got != want {
			t.Fatalf("seed %d: trajectory with RunUntil stops diverged from a straight Run\n--- straight ---\n%s\n--- with stops ---\n%s",
				seed, want, got)
		}
		recovered += rec.Lost + rec.Degraded
	}
	if recovered == 0 {
		t.Fatal("no kill-class seed ever lost traffic; watchdog recovery was not exercised")
	}
}

// TestHardPathTrajectoryGolden pins the straight-run trajectory of every
// seed of the hard-failure replay battery: one line per seed holding the
// SHA-256 of its log, which records every send, delivery and wait
// completion with its time, the stats, the recovery tally, the final
// clock and the event counts. A change to the transport that moves one
// event, tie-break or loss changes a digest. Each seed runs a second
// time with a metrics recorder on the machine and must give the same
// line: recording is passive. Regenerate with
//
//	go test ./internal/machine -run TestHardPathTrajectoryGolden -update
func TestHardPathTrajectoryGolden(t *testing.T) {
	digests := func(record bool) string {
		var b strings.Builder
		for seed := 0; seed < recoverySeeds; seed++ {
			log, _ := recoveryTrajectory(t, seed, false, record)
			fmt.Fprintf(&b, "%d %x\n", seed, sha256.Sum256([]byte(log)))
		}
		return b.String()
	}
	got, recorded := digests(false), digests(true)
	path := filepath.Join("testdata", "hardpath-trajectories.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	for _, run := range []struct{ name, got string }{{"plain", got}, {"recorded", recorded}} {
		gotLines := strings.Split(run.got, "\n")
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%s: %d trajectory lines, golden has %d", run.name, len(gotLines), len(wantLines))
		}
		for i := range gotLines {
			if gotLines[i] != wantLines[i] {
				t.Errorf("%s: trajectory digest changed: got %q, golden %q", run.name, gotLines[i], wantLines[i])
			}
		}
	}
}
