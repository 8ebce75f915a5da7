package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Property tests for the machine's bookkeeping contracts: the send
// sequence, per-node statistics merging, and the in-order commit ledger.

// propSend is one send of the randomized property workload, generated
// once so every run (any InOrder policy) replays the identical schedule.
type propSend struct {
	src     topo.NodeID
	dst     packet.Client
	at      sim.Time
	kind    packet.Kind
	mc      packet.MulticastID
	bytes   int
	ctr     packet.CounterID
	inOrder bool
	tag     string
}

// propWorkload derives a deterministic send mix. A handful of hot
// (src, dst) pairs — X-adjacent neighbours with a per-pair multicast
// pattern over the same link — get bursts interleaving large FIFO
// messages with small multicast sync writes: the sync write skips the
// payload serialization the message pays, so without the in-order
// guarantee it overtakes, and the ledger genuinely has to defer
// commits (the migration idiom). The remaining sends scatter unicast
// counted writes across the whole torus.
func propWorkload(seed int64, shape [3]int, sends int) ([]propSend, [][2]topo.NodeID) {
	tor := topo.NewTorus(shape[0], shape[1], shape[2])
	nodes := tor.Nodes()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]topo.NodeID, 6)
	for i := range pairs {
		src := topo.NodeID(rng.Intn(nodes))
		dst := tor.ID(tor.Neighbor(tor.Coord(src), topo.Port{Dim: topo.X, Dir: +1}))
		pairs[i] = [2]topo.NodeID{src, dst}
	}
	out := make([]propSend, 0, sends)
	for i := 0; i < sends; i++ {
		var s propSend
		if rng.Intn(3) > 0 {
			pi := rng.Intn(len(pairs))
			p := pairs[pi]
			s.src = p[0]
			s.dst = packet.Client{Node: p[1], Kind: packet.Slice(pi % 4)}
			s.at = sim.Time(rng.Intn(8)) * sim.Time(250*sim.Ns)
			if rng.Intn(2) == 0 {
				s.kind = packet.Message
				s.mc = packet.NoMulticast
				s.bytes = 128 + rng.Intn(129)
				s.ctr = packet.NoCounter
			} else {
				s.kind = packet.Write
				s.mc = packet.MulticastID(pi)
				s.bytes = 8
				s.ctr = packet.CounterID(rng.Intn(3))
			}
		} else {
			s.src = topo.NodeID(rng.Intn(nodes))
			s.dst = packet.Client{Node: topo.NodeID(rng.Intn(nodes)), Kind: packet.Slice(rng.Intn(4))}
			s.at = sim.Time(rng.Int63n(int64(2 * sim.Us)))
			s.kind = packet.Write
			s.mc = packet.NoMulticast
			s.bytes = rng.Intn(257)
			s.ctr = packet.CounterID(rng.Intn(3))
		}
		s.inOrder = rng.Intn(2) == 0
		s.tag = fmt.Sprintf("p%d", i)
		out = append(out, s)
	}
	return out, pairs
}

// propRun replays the workload on a fresh machine and returns the
// machine plus the canonical send record and per-delivery commit times.
// forceOrder overrides each send's InOrder flag: -1 leaves the mix,
// 0 clears it, 1 sets it.
func propRun(t *testing.T, work []propSend, pairs [][2]topo.NodeID, forceOrder int, shape [3]int) (*Machine, []sentRec, map[string]sim.Time) {
	t.Helper()
	tor := topo.NewTorus(shape[0], shape[1], shape[2])
	s := sim.New()
	m := New(s, tor, noc.DefaultModel())

	for pi, p := range pairs {
		m.SetMulticast(p[0], packet.MulticastID(pi), packet.McEntry{Out: []topo.Port{{Dim: topo.X, Dir: +1}}})
		m.SetMulticast(p[1], packet.MulticastID(pi), packet.McEntry{Local: []packet.ClientKind{packet.Slice(pi % 4)}})
	}

	var sent []sentRec
	m.OnSend = func(pkt *packet.Packet, at sim.Time) {
		rec := sentRec{seq: pkt.Seq, src: pkt.Src, dst: pkt.Dst, ticket: pkt.Ticket, inOrder: pkt.InOrder, tag: pkt.Tag}
		if pkt.Multicast != packet.NoMulticast && len(pkt.Tickets) > 0 {
			// Single-destination multicast: report the resolved ticket so
			// per-pair checks treat it like the unicasts it interleaves with.
			rec.dst = pkt.Tickets[0].Dst
			rec.ticket = pkt.Tickets[0].Ticket
		}
		sent = append(sent, rec)
	}
	commits := make(map[string]sim.Time)
	m.OnDeliver = func(pkt *packet.Packet, dst packet.Client, at sim.Time) {
		commits[pkt.Tag] = at
	}

	for i := range work {
		w := work[i]
		inOrder := w.inOrder
		if forceOrder == 0 {
			inOrder = false
		} else if forceOrder == 1 {
			inOrder = true
		}
		src := m.Client(packet.Client{Node: w.src, Kind: packet.Slice0})
		s.At(w.at, sim.Func(func() {
			pkt := &packet.Packet{
				Kind: w.kind, Multicast: w.mc, Counter: w.ctr,
				Bytes: w.bytes, InOrder: inOrder, Tag: w.tag,
			}
			if w.mc == packet.NoMulticast {
				pkt.Dst = w.dst
			}
			src.Send(pkt)
		}))
	}
	s.Run()
	return m, sent, commits
}

type sentRec struct {
	seq     uint64
	src     packet.Client
	dst     packet.Client
	ticket  uint64
	inOrder bool
	tag     string
}

const propShapeX, propShapeY, propShapeZ = 4, 4, 2

// TestSeqRenumberBijection pins the send-sequence contract: the stream
// OnSend observes is exactly 1..N in order (a bijection onto the dense
// range — no gaps, no duplicates, no reordering of the stream itself),
// and per-(src,dst) in-order tickets appear in strictly increasing order
// (numbering preserves per-pair send order).
func TestSeqRenumberBijection(t *testing.T) {
	work, pairs := propWorkload(31, [3]int{propShapeX, propShapeY, propShapeZ}, 240)
	shape := [3]int{propShapeX, propShapeY, propShapeZ}

	_, sent, _ := propRun(t, work, pairs, -1, shape)
	if len(sent) != len(work) {
		t.Fatalf("recorded %d sends, workload has %d", len(sent), len(work))
	}
	lastTicket := make(map[[2]packet.Client]uint64)
	for i, r := range sent {
		if r.seq != uint64(i+1) {
			t.Fatalf("send record %d carries seq %d; the stream must be the identity 1..N", i, r.seq)
		}
		if r.inOrder {
			key := [2]packet.Client{r.src, r.dst}
			if last, ok := lastTicket[key]; ok && r.ticket <= last {
				t.Fatalf("pair %v->%v: ticket %d after %d in seq order; numbering broke per-pair send order",
					r.src, r.dst, r.ticket, last)
			}
			lastTicket[key] = r.ticket
		}
	}
}

// TestStatsShardMergeConservation pins the per-node statistics contract:
// the machine-wide totals are exactly the sum of the per-node counts
// (count conservation — the merge is a reduction that cannot invent or
// drop traffic), and the reduction is order-free.
func TestStatsShardMergeConservation(t *testing.T) {
	work, pairs := propWorkload(47, [3]int{propShapeX, propShapeY, propShapeZ}, 240)
	shape := [3]int{propShapeX, propShapeY, propShapeZ}
	nodes := propShapeX * propShapeY * propShapeZ

	type shard struct{ sent, recv uint64 }
	snapshot := func(m *Machine) ([]shard, Stats) {
		st := m.Stats()
		per := make([]shard, nodes)
		for n := 0; n < nodes; n++ {
			per[n] = shard{st.NodeSent(topo.NodeID(n)), st.NodeReceived(topo.NodeID(n))}
		}
		return per, st
	}

	m, _, _ := propRun(t, work, pairs, -1, shape)
	wantPer, wantTot := snapshot(m)

	// Conservation: totals equal the shard sum, summed in either order.
	var fwd, rev shard
	for n := 0; n < nodes; n++ {
		fwd.sent += wantPer[n].sent
		fwd.recv += wantPer[n].recv
		rev.sent += wantPer[nodes-1-n].sent
		rev.recv += wantPer[nodes-1-n].recv
	}
	if fwd != rev {
		t.Fatalf("shard reduction is order-dependent: forward %v, reverse %v", fwd, rev)
	}
	if wantTot.Sent != fwd.sent || wantTot.Received != fwd.recv {
		t.Fatalf("totals (%d sent, %d received) != shard sum (%d, %d)",
			wantTot.Sent, wantTot.Received, fwd.sent, fwd.recv)
	}
	if wantTot.Sent != uint64(len(work)) {
		t.Fatalf("machine sent %d packets, workload issued %d", wantTot.Sent, len(work))
	}
}

// TestInOrderCommitNeverEarly pins the ledger-reconciliation bound
// end to end: an in-order packet's commit never runs earlier than the
// availability instant commitInOrder was given. The plain (unflagged)
// twin run commits at exactly that bound — the flag changes nothing
// upstream of commit — so comparing per-packet commit times across the
// twin runs observes the bound directly, and the in-order run must
// additionally commit each pair's packets at nondecreasing times. (In
// the static model same-pair traffic arrives in ticket order — the
// links and receive ports are FIFO resources — so deferral itself is
// exercised synthetically by TestLedgerReconcileBound and, through
// recovery reissue, by the kill-plan classes of FuzzMachineReplay.)
func TestInOrderCommitNeverEarly(t *testing.T) {
	work, pairs := propWorkload(59, [3]int{propShapeX, propShapeY, propShapeZ}, 240)
	shape := [3]int{propShapeX, propShapeY, propShapeZ}

	_, _, plain := propRun(t, work, pairs, 0, shape)
	_, ordSent, ordered := propRun(t, work, pairs, 1, shape)

	if len(plain) != len(work) || len(ordered) != len(work) {
		t.Fatalf("delivered %d plain / %d ordered, want %d", len(plain), len(ordered), len(work))
	}
	for _, w := range work {
		avail, ok := plain[w.tag]
		if !ok {
			t.Fatalf("packet %s missing from plain run", w.tag)
		}
		got, ok := ordered[w.tag]
		if !ok {
			t.Fatalf("packet %s missing from in-order run", w.tag)
		}
		if got < avail {
			t.Fatalf("packet %s committed at %v, before its availability bound %v", w.tag, got, avail)
		}
	}

	// Per-pair commit times nondecreasing in ticket order. The send
	// records arrive in seq order, which within one pair equals ticket
	// order (pinned by TestSeqRenumberBijection), so walking them in
	// sequence visits each pair's packets oldest-ticket first.
	lastTicket := make(map[[2]packet.Client]uint64)
	lastAt := make(map[[2]packet.Client]sim.Time)
	for _, r := range ordSent {
		key := [2]packet.Client{r.src, r.dst}
		if last, ok := lastTicket[key]; ok && r.ticket <= last {
			t.Fatalf("pair %v->%v ticket %d after %d in seq order", r.src, r.dst, r.ticket, last)
		}
		lastTicket[key] = r.ticket
		at := ordered[r.tag]
		if last, ok := lastAt[key]; ok && at < last {
			t.Fatalf("pair %v->%v ticket %d committed at %v, before the pair's previous commit %v",
				r.src, r.dst, r.ticket, at, last)
		}
		lastAt[key] = at
	}
}

// TestLedgerReconcileBound drives commitInOrder directly with
// out-of-order ticket arrivals — the situation recovery reissue creates
// — and pins the reconciliation contract: commits run in ticket order,
// never earlier than the packet's own availability bound, never earlier
// than the pair's previous commit, and exactly at the bound when nothing
// blocks.
func TestLedgerReconcileBound(t *testing.T) {
	type commitRec struct {
		ticket uint64
		at     sim.Time
	}
	tor := topo.NewTorus(2, 2, 1)
	s := sim.New()
	m := New(s, tor, noc.DefaultModel())

	src := packet.Client{Node: 0, Kind: packet.Slice0}
	dst := packet.Client{Node: 1, Kind: packet.Slice1}
	mk := func(ticket uint64) *packet.Packet {
		return &packet.Packet{
			Kind: packet.Write, Src: src, Dst: dst,
			Multicast: packet.NoMulticast, InOrder: true, Ticket: ticket,
		}
	}
	var got []commitRec
	record := func(ticket uint64) sim.Func {
		return func() { got = append(got, commitRec{ticket, s.Now()}) }
	}
	// Ticket 1 arrives first (avail 110ns), ticket 2 next with an even
	// earlier bound (105ns), ticket 0 last (avail 150ns, already past at
	// arrival) — all must wait for ticket 0 and commit together.
	arrive := func(at sim.Time, ticket uint64, avail sim.Time) {
		s.At(at, sim.Func(func() { m.commitInOrder(mk(ticket), dst, avail, record(ticket)) }))
	}
	arrive(100*sim.Time(sim.Ns), 1, 110*sim.Time(sim.Ns))
	arrive(120*sim.Time(sim.Ns), 2, 105*sim.Time(sim.Ns))
	arrive(200*sim.Time(sim.Ns), 0, 150*sim.Time(sim.Ns))
	// A second burst in arrival order: each commits exactly at its own
	// bound (the ledger adds no slack when nothing blocks).
	arrive(300*sim.Time(sim.Ns), 3, 310*sim.Time(sim.Ns))
	arrive(320*sim.Time(sim.Ns), 4, 340*sim.Time(sim.Ns))
	s.Run()

	want := []commitRec{
		// Tickets 0..2 unblock when 0 arrives at 200ns: every bound is in
		// the past by then, so all three commit at the arrival instant.
		{0, 200 * sim.Time(sim.Ns)},
		{1, 200 * sim.Time(sim.Ns)},
		{2, 200 * sim.Time(sim.Ns)},
		// The in-order burst commits exactly at its availability bounds.
		{3, 310 * sim.Time(sim.Ns)},
		{4, 340 * sim.Time(sim.Ns)},
	}
	if len(got) != len(want) {
		t.Fatalf("%d commits, want %d (%v)", len(got), len(want), got)
	}
	var lastAt sim.Time
	for i, g := range got {
		if g != want[i] {
			t.Fatalf("commit %d = {ticket %d, %v}, want {ticket %d, %v}",
				i, g.ticket, g.at, want[i].ticket, want[i].at)
		}
		if g.at < lastAt {
			t.Fatalf("commit times regressed: %v", got)
		}
		lastAt = g.at
	}
}
