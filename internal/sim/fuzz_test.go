// Replay fuzzing of the kernel through the full machine model: for a
// randomized workload — topology, fault plan, kill schedule, and handler
// mix all derived from the fuzz input — two runs must produce the same
// trajectory byte for byte and leave no event pending. The workload runs
// on the machine layer (in an external test package, since machine builds
// on sim), so a replay mismatch exposes nondeterminism anywhere in the
// model stack — map iteration order, say — across send sequencing, the
// in-order ledger, per-node statistics, multicast fan-out, counter wakes,
// FIFO delivery, fault draws, and, under kill plans, watchdog recovery.
package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"anton/internal/collective"
	"anton/internal/fault"
	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// fuzzTopos are the torus shapes the fuzzer cycles through, small enough
// that a seed runs in milliseconds.
var fuzzTopos = [][3]int{{2, 2, 2}, {4, 2, 2}, {4, 4, 2}, {4, 4, 4}}

// fuzzPlan derives a fault plan from the selector: none, soft faults
// (corruption + stalls), scheduled outage windows, a killed link, or a
// killed node. Hard-fault selections exercise watchdog recovery.
func fuzzPlan(sel uint8, seed uint64, nodes int) fault.Plan {
	p := fault.Plan{Seed: seed}
	switch sel % 5 {
	case 0:
		// fault-free
	case 1:
		p.CorruptRate = 0.02
		p.RetryLatency = 30 * sim.Ns
		p.StallRate = 0.01
		p.StallDur = 100 * sim.Ns
	case 2:
		l := fault.Link{Node: int(seed) % nodes, Port: topo.Port{Dim: topo.X, Dir: +1}}
		p.Down = []fault.Window{{Link: l, From: sim.Time(500 * sim.Ns), Until: sim.Time(2 * sim.Us)}}
	case 3:
		l := fault.Link{Node: int(seed) % nodes, Port: topo.Port{Dim: topo.Y, Dir: -1}}
		p.KillLinks = []fault.LinkKill{{Link: l, At: sim.Time(1 * sim.Us)}}
		p.Watchdog = 15 * sim.Us
	case 4:
		p.KillNodes = []fault.NodeKill{{Node: int(seed) % nodes, At: sim.Time(1 * sim.Us)}}
		p.Watchdog = 15 * sim.Us
	}
	return p
}

// fuzzTrajectory runs the derived workload and renders every observable
// the determinism contract covers: the canonical send-sequence stream,
// the delivery log (in canonical commit order), per-node traffic
// counts, the fault tally, and the final clock and event count. A run
// that leaves events pending fails t.
func fuzzTrajectory(t *testing.T, seed uint64, topoSel, faultSel uint8) string {
	shape := fuzzTopos[int(topoSel)%len(fuzzTopos)]
	tor := topo.NewTorus(shape[0], shape[1], shape[2])
	s := sim.New()
	plan := fuzzPlan(faultSel, seed, tor.Nodes())
	if !plan.IsZero() || plan.Seed != 0 {
		fault.Attach(s, plan)
	}
	m := machine.New(s, tor, noc.DefaultModel())

	var log strings.Builder
	m.OnSend = func(pkt *packet.Packet, at sim.Time) {
		fmt.Fprintf(&log, "S %d %s %v\n", pkt.Seq, pkt.Tag, at)
	}
	m.OnDeliver = func(pkt *packet.Packet, dst packet.Client, at sim.Time) {
		fmt.Fprintf(&log, "D %d %s %v->%v %v\n", pkt.Seq, pkt.Tag, pkt.Src, dst, at)
	}

	// Ring-broadcast patterns along X deliver to every ring peer's
	// slice 1: the multicast path, including in-order multicast tickets.
	ringN := collective.InstallRingBroadcast(m, topo.X, packet.Slice1, 0)

	rng := rand.New(rand.NewSource(int64(seed)))
	nodes := tor.Nodes()
	// expected counts the counted writes addressed to each (client,
	// counter), so every registered wait has an exactly reachable target
	// (kill plans may still lose packets; recovery then reissues or
	// degrades the wait deterministically).
	type ctrKey struct {
		c   packet.Client
		ctr packet.CounterID
	}
	expected := make(map[ctrKey]uint64)

	const sends = 120
	for i := 0; i < sends; i++ {
		srcNode := topo.NodeID(rng.Intn(nodes))
		at := sim.Time(rng.Int63n(int64(4 * sim.Us)))
		tag := fmt.Sprintf("p%d", i)
		switch rng.Intn(5) {
		case 0: // unicast counted write, sometimes in order
			dst := packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Slice(rng.Intn(4))}
			ctr := packet.CounterID(rng.Intn(3))
			inOrder := rng.Intn(2) == 0
			expected[ctrKey{dst, ctr}]++
			src := m.Client(packet.Client{Node: srcNode, Kind: packet.Slice0})
			s.At(at, func() {
				src.Send(&packet.Packet{
					Kind: packet.Write, Dst: dst, Multicast: packet.NoMulticast,
					Counter: ctr, Addr: 64 * i, Bytes: 32, InOrder: inOrder, Tag: tag,
				})
			})
		case 1: // accumulation
			dst := packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Accum(rng.Intn(2))}
			ctr := packet.CounterID(3 + rng.Intn(2))
			expected[ctrKey{dst, ctr}]++
			src := m.Client(packet.Client{Node: srcNode, Kind: packet.Slice1})
			s.At(at, func() {
				src.Send(&packet.Packet{
					Kind: packet.Accumulate, Dst: dst, Multicast: packet.NoMulticast,
					Counter: ctr, Addr: 8 * (i % 16), Bytes: 24, Payload: []float64{float64(i)}, Tag: tag,
				})
			})
		case 2: // message into the destination slice's FIFO
			dst := packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Slice(rng.Intn(4))}
			src := m.Client(packet.Client{Node: srcNode, Kind: packet.Slice2})
			s.At(at, func() {
				src.Send(&packet.Packet{
					Kind: packet.Message, Dst: dst, Multicast: packet.NoMulticast,
					Counter: packet.NoCounter, Bytes: 64, Tag: tag,
				})
			})
		case 3: // X-ring multicast counted write, sometimes in order
			c := tor.Coord(srcNode)
			ctr := packet.CounterID(5)
			inOrder := rng.Intn(2) == 0
			for r := 0; r < ringN; r++ {
				if r == c.X {
					continue
				}
				peer := tor.ID(topo.C(r, c.Y, c.Z))
				expected[ctrKey{packet.Client{Node: peer, Kind: packet.Slice1}, ctr}]++
			}
			src := m.Client(packet.Client{Node: srcNode, Kind: packet.Slice0})
			s.At(at, func() {
				src.Send(&packet.Packet{
					Kind: packet.Write, Multicast: packet.MulticastID(c.X),
					Counter: ctr, Addr: 4096, Bytes: 16, InOrder: inOrder, Tag: tag,
				})
			})
		case 4: // chained handler: a wait that sends onward when it fires
			dst := packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Slice3}
			ctr := packet.CounterID(6)
			expected[ctrKey{dst, ctr}]++
			src := m.Client(packet.Client{Node: srcNode, Kind: packet.Slice0})
			next := packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Slice2}
			target := expected[ctrKey{dst, ctr}]
			m.Client(dst).Wait(ctr, target, func() {
				m.Client(dst).Send(&packet.Packet{
					Kind: packet.Message, Dst: next, Multicast: packet.NoMulticast,
					Counter: packet.NoCounter, Bytes: 8, Tag: tag + "-relay",
				})
			})
			s.At(at, func() {
				src.Send(&packet.Packet{
					Kind: packet.Write, Dst: dst, Multicast: packet.NoMulticast,
					Counter: ctr, Addr: 0, Bytes: 32, Tag: tag,
				})
			})
		}
	}
	// Drain one FIFO with the polling loop so Pop interleaves with
	// deliveries.
	drainNode := topo.NodeID(int(seed) % nodes)
	f := m.Client(packet.Client{Node: drainNode, Kind: packet.Slice0}).FIFO()
	var pump func()
	pump = func() {
		f.Pop(func(pkt *packet.Packet) {
			fmt.Fprintf(&log, "F %s\n", pkt.Tag)
			pump()
		})
	}
	s.At(sim.Time(1*sim.Us), pump)

	s.Run()
	if n := s.Pending(); n != 0 {
		t.Fatalf("seed=%d topo=%d fault=%d: %d events pending after Run", seed, topoSel, faultSel, n)
	}

	st := m.Stats()
	fmt.Fprintf(&log, "stats %d %d %d %d\n", st.Sent, st.Received, st.SentBytes, st.RecvBytes)
	for n := 0; n < nodes; n++ {
		fmt.Fprintf(&log, "node %d %d %d\n", n, st.NodeSent(topo.NodeID(n)), st.NodeReceived(topo.NodeID(n)))
	}
	if fs := m.Faults(); fs != nil {
		fmt.Fprintf(&log, "faults %v\n", fs.Stats())
	}
	fmt.Fprintf(&log, "end %v %d\n", s.Now(), s.Fired())
	return log.String()
}

// FuzzMachineReplay is the replay fuzz target: any difference between two
// runs of one input is nondeterminism in the model stack, whatever the
// workload does.
func FuzzMachineReplay(f *testing.F) {
	// Seed corpus: every topology and every fault-plan class, plus a few
	// extra seeds for handler-mix variety. ci.sh runs these as regular
	// tests.
	for sel := uint8(0); sel < 5; sel++ {
		f.Add(uint64(11+sel), sel, sel)
	}
	f.Add(uint64(1), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(1))
	f.Add(uint64(99), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, faultSel uint8) {
		want := fuzzTrajectory(t, seed, topoSel, faultSel)
		if got := fuzzTrajectory(t, seed, topoSel, faultSel); got != want {
			t.Fatalf("seed=%d topo=%d fault=%d: replay diverged\n--- first run ---\n%s\n--- second run ---\n%s",
				seed, topoSel, faultSel, diffHead(want, got), diffHead(got, want))
		}
	})
}

// diffHead returns the first few lines around the first difference, so
// a failing fuzz case prints a usable report instead of two full logs.
func diffHead(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(la) {
				hi = len(la)
			}
			return fmt.Sprintf("(first divergence at line %d)\n%s", i, strings.Join(la[lo:hi], "\n"))
		}
	}
	return "(prefix identical)"
}
