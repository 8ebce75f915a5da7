package machine

import (
	"math/rand"
	"testing"

	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// measure sends one counted remote write from src to dst and returns the
// end-to-end latency: send issue to successful poll of the sync counter.
func measure(t *testing.T, m *Machine, src, dst packet.Client, bytes int) sim.Dur {
	t.Helper()
	var avail sim.Time = -1
	m.Client(dst).Wait(7, 1, func() { avail = m.Sim.Now() })
	start := m.Sim.Now()
	m.Client(src).Write(dst, 7, 0, bytes)
	m.Sim.Run()
	if avail < 0 {
		t.Fatalf("write %v -> %v never delivered", src, dst)
	}
	return avail.Sub(start)
}

func slice0(n topo.NodeID) packet.Client { return packet.Client{Node: n, Kind: packet.Slice0} }

func TestEndToEnd162ns(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	got := measure(t, m, slice0(a), slice0(b), 0)
	if got != 162*sim.Ns {
		t.Fatalf("1 X hop 0B latency = %v, want 162ns", got)
	}
}

func TestLatencyMatchesClosedForm(t *testing.T) {
	// The event-driven model must agree exactly with noc.PathLatency for
	// uncontended traffic between arbitrary node pairs and payload sizes.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		s := sim.New()
		m := Default512(s)
		ca := topo.C(rng.Intn(8), rng.Intn(8), rng.Intn(8))
		cb := topo.C(rng.Intn(8), rng.Intn(8), rng.Intn(8))
		if ca == cb {
			continue
		}
		bytes := rng.Intn(257)
		a, b := m.Torus.ID(ca), m.Torus.ID(cb)
		got := measure(t, m, slice0(a), slice0(b), bytes)
		wire := (&packet.Packet{Bytes: bytes}).WireBytes()
		want := m.Model.PathLatency(m.Torus.HopsByDim(ca, cb), packet.Slice0, packet.Slice0, wire)
		if got != want {
			t.Fatalf("trial %d %v->%v %dB: DES %v, closed form %v", trial, ca, cb, bytes, got, want)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	n := m.NodeAt(topo.C(3, 3, 3)).ID
	got := measure(t, m, slice0(n), packet.Client{Node: n, Kind: packet.Slice2}, 0)
	want := m.Model.SliceSend + m.Model.LocalRing + m.Model.Deliver
	if got != want {
		t.Fatalf("local delivery = %v, want %v", got, want)
	}
}

func TestWritePayloadStored(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	dst := packet.Client{Node: 9, Kind: packet.Slice1}
	m.Client(slice0(0)).Write(dst, 0, 10, 24, 1.5, 2.5, 3.5)
	s.Run()
	got := m.Client(dst).Mem(10, 3)
	if got[0] != 1.5 || got[1] != 2.5 || got[2] != 3.5 {
		t.Fatalf("stored payload = %v", got)
	}
	// Unwritten memory reads zero.
	if z := m.Client(dst).Mem(100, 1)[0]; z != 0 {
		t.Fatalf("unwritten word = %v", z)
	}
}

func TestAccumulationSums(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	acc := packet.Client{Node: 0, Kind: packet.Accum0}
	// Five sources across the machine accumulate into the same address.
	for i := 1; i <= 5; i++ {
		src := packet.Client{Node: topo.NodeID(i), Kind: packet.Slice(i % 4)}
		m.Client(src).Accumulate(acc, 3, 0, 8, float64(i))
	}
	done := false
	m.Client(acc).Counter(3).Wait(5, 0, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("accumulation counter never reached 5")
	}
	if got := m.Client(acc).Mem(0, 1)[0]; got != 15 {
		t.Fatalf("accumulated sum = %v, want 15", got)
	}
}

// Property: accumulation is order-independent — random interleavings of
// senders yield the same final sum.
func TestAccumulationOrderIndependence(t *testing.T) {
	run := func(seed int64) float64 {
		s := sim.New()
		m := Default512(s)
		acc := packet.Client{Node: 100, Kind: packet.Accum1}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 30; i++ {
			src := packet.Client{Node: topo.NodeID(rng.Intn(512)), Kind: packet.Slice(rng.Intn(4))}
			if src.Node == 100 {
				continue
			}
			v := float64(i)
			delay := sim.Dur(rng.Intn(1000)) * sim.Ns
			s.After(delay, sim.Func(func() { m.Client(src).Accumulate(acc, 0, 4, 8, v) }))
		}
		s.Run()
		return m.Client(acc).Mem(4, 1)[0]
	}
	a, b := run(1), run(2)
	if a != b {
		t.Fatalf("accumulation order dependence: %v vs %v", a, b)
	}
}

func TestAccumulatePacketToSlicePanics(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	m.Client(slice0(0)).Accumulate(slice0(1), 0, 0, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic delivering accumulation packet to a slice")
		}
	}()
	s.Run()
}

func TestAccumCannotSend(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: accumulation memories cannot send")
		}
	}()
	m.Client(packet.Client{Node: 0, Kind: packet.Accum0}).Write(slice0(1), 0, 0, 8)
}

func TestCountedRemoteWriteMultipleSources(t *testing.T) {
	// The defining pattern: several sources push to one target, which polls
	// a single counter and proceeds only when all data has arrived.
	s := sim.New()
	m := Default512(s)
	dst := slice0(m.NodeAt(topo.C(4, 4, 4)).ID)
	sources := []topo.Coord{topo.C(3, 4, 4), topo.C(5, 4, 4), topo.C(4, 3, 4), topo.C(4, 5, 4), topo.C(0, 0, 0)}
	for i, c := range sources {
		src := slice0(m.NodeAt(c).ID)
		m.Client(src).Write(dst, 1, i, 8, float64(i+1))
	}
	var avail sim.Time = -1
	m.Client(dst).Wait(1, uint64(len(sources)), func() { avail = s.Now() })
	s.Run()
	if avail < 0 {
		t.Fatal("counter never reached target")
	}
	// The last arrival dominates: the (0,0,0) source is 12 hops away.
	want := m.Model.PathLatency([3]int{4, 4, 4}, packet.Slice0, packet.Slice0, packet.HeaderBytes)
	if avail.Sub(0) < want {
		t.Fatalf("completion %v earlier than farthest source %v", avail, want)
	}
	for i := range sources {
		if got := m.Client(dst).Mem(i, 1)[0]; got != float64(i+1) {
			t.Fatalf("word %d = %v", i, got)
		}
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two max-size packets from different slices on the same node, same
	// destination: the shared outgoing link must serialize them.
	s := sim.New()
	m := Default512(s)
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	dst := slice0(b)
	var first, second sim.Time = -1, -1
	m.Client(dst).Counter(0).Wait(1, 0, func() { first = s.Now() })
	m.Client(dst).Counter(0).Wait(2, 0, func() { second = s.Now() })
	m.Client(packet.Client{Node: a, Kind: packet.Slice0}).Write(dst, 0, 0, 256)
	m.Client(packet.Client{Node: a, Kind: packet.Slice1}).Write(dst, 0, 64, 256)
	s.Run()
	gap := second.Sub(first)
	service := m.Model.LinkService(288)
	if gap < service {
		t.Fatalf("second delivery only %v after first; link service is %v", gap, service)
	}
}

func TestSustainedBandwidth(t *testing.T) {
	// A stream of max-size packets across one link must sustain ~36.8
	// Gbit/s of payload.
	s := sim.New()
	m := Default512(s)
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	const n = 200
	var done sim.Time
	m.Client(slice0(b)).Wait(0, n, func() { done = s.Now() })
	for i := 0; i < n; i++ {
		m.Client(slice0(a)).Write(slice0(b), 0, i*32, 256)
	}
	s.Run()
	gbps := float64(n*256*8) / done.Ns()
	if gbps < 33 || gbps > 38 {
		t.Fatalf("sustained payload bandwidth = %.2f Gbit/s, want ~36.8", gbps)
	}
}

func TestMulticastRowBroadcast(t *testing.T) {
	// Broadcast along an X row: each node delivers to its slice0 and
	// forwards to X+ until the pattern stops. One injected packet, many
	// deliveries — this is what cuts sender overhead and bandwidth.
	s := sim.New()
	m := Default512(s)
	row := make([]topo.NodeID, 4)
	for i := range row {
		row[i] = m.NodeAt(topo.C(i, 2, 2)).ID
	}
	const mcid = 5
	for i, n := range row {
		e := packet.McEntry{}
		if i > 0 {
			e.Local = []packet.ClientKind{packet.Slice0}
		}
		if i < len(row)-1 {
			e.Out = []topo.Port{{Dim: topo.X, Dir: +1}}
		}
		m.SetMulticast(n, mcid, e)
	}
	arrive := map[topo.NodeID]sim.Time{}
	for _, n := range row[1:] {
		n := n
		m.Client(slice0(n)).Wait(2, 1, func() { arrive[n] = s.Now() })
	}
	m.Client(slice0(row[0])).MulticastWrite(mcid, 2, 0, 8, 42)
	s.Run()
	if len(arrive) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(arrive))
	}
	if arrive[row[1]] != sim.Time(162*sim.Ns) {
		t.Fatalf("first hop arrival %v, want 162ns", arrive[row[1]])
	}
	// Each further node arrives one X hop increment later.
	inc := m.Model.HopIncrement(topo.X)
	if arrive[row[2]].Sub(arrive[row[1]]) != inc || arrive[row[3]].Sub(arrive[row[2]]) != inc {
		t.Fatalf("multicast hop spacing: %v %v %v", arrive[row[1]], arrive[row[2]], arrive[row[3]])
	}
	// Sender injected exactly one packet; three were received.
	st := m.Stats()
	if st.Sent != 1 || st.Received != 3 {
		t.Fatalf("stats sent=%d received=%d, want 1/3", st.Sent, st.Received)
	}
	for _, n := range row[1:] {
		if got := m.Client(slice0(n)).Mem(0, 1)[0]; got != 42 {
			t.Fatalf("payload at node %d = %v", n, got)
		}
	}
}

func TestMulticastMissingPatternPanics(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	m.Client(slice0(0)).MulticastWrite(9, 0, 0, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on uninstalled multicast pattern")
		}
	}()
	s.Run()
}

func TestFIFOMessageDelivery(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	dst := slice0(5)
	var got *packet.Packet
	m.Client(dst).FIFO().Pop(func(p *packet.Packet) { got = p })
	m.Client(slice0(0)).Message(dst, 64, 1, 2, 3)
	s.Run()
	if got == nil || len(got.Payload) != 3 || got.Payload[2] != 3 {
		t.Fatalf("FIFO message = %+v", got)
	}
}

func TestFIFOQueuesInOrder(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	dst := slice0(3)
	src := m.Client(slice0(2))
	for i := 0; i < 5; i++ {
		src.Message(dst, 32, float64(i))
	}
	var got []float64
	var drain func(*packet.Packet)
	drain = func(p *packet.Packet) {
		got = append(got, p.Payload[0])
		if len(got) < 5 {
			m.Client(dst).FIFO().Pop(drain)
		}
	}
	m.Client(dst).FIFO().Pop(drain)
	s.Run()
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("messages out of order: %v", got)
		}
	}
	if m.Client(dst).FIFO().Delivered() != 5 {
		t.Fatalf("delivered = %d", m.Client(dst).FIFO().Delivered())
	}
}

func TestFIFOBackpressure(t *testing.T) {
	s := sim.New()
	model := noc.DefaultModel()
	model.FIFOCapacity = 2
	m := New(s, topo.NewTorus(4, 4, 4), model)
	dst := slice0(1)
	src := m.Client(slice0(0))
	for i := 0; i < 5; i++ {
		src.Message(dst, 32, float64(i))
	}
	// Let everything arrive with nobody draining: 2 queued, 3 blocked.
	s.Run()
	f := m.Client(dst).FIFO()
	if f.Len() != 2 || f.Blocked() != 3 {
		t.Fatalf("queue=%d blocked=%d, want 2/3", f.Len(), f.Blocked())
	}
	// Drain everything; blocked messages are admitted as space frees.
	var got []float64
	var drain func(*packet.Packet)
	drain = func(p *packet.Packet) {
		got = append(got, p.Payload[0])
		if len(got) < 5 {
			f.Pop(drain)
		}
	}
	f.Pop(drain)
	s.Run()
	if len(got) != 5 {
		t.Fatalf("drained %d messages, want 5", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("backpressured messages out of order: %v", got)
		}
	}
}

func TestConcurrentFIFOPopPanics(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	f := m.Client(slice0(0)).FIFO()
	f.Pop(func(*packet.Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on concurrent Pop")
		}
	}()
	f.Pop(func(*packet.Packet) {})
}

func TestFIFOOnNonSlicePanics(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: HTIS has no FIFO")
		}
	}()
	m.Client(packet.Client{Node: 0, Kind: packet.HTIS}).FIFO()
}

func TestInOrderAvailabilityMonotone(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	a, b := slice0(0), slice0(1)
	var avails []sim.Time
	m.OnDeliver = func(pkt *packet.Packet, dst packet.Client, at sim.Time) {
		avails = append(avails, at)
	}
	for i := 0; i < 4; i++ {
		m.Client(a).Send(&packet.Packet{
			Kind: packet.Write, Dst: b, Multicast: packet.NoMulticast,
			Counter: 0, Bytes: 256 - i*80, InOrder: true,
		})
	}
	s.Run()
	if len(avails) != 4 {
		t.Fatalf("deliveries = %d", len(avails))
	}
	for i := 1; i < len(avails); i++ {
		if avails[i] < avails[i-1] {
			t.Fatalf("in-order availability regressed: %v", avails)
		}
	}
}

func TestStatsPerNode(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	m.Client(slice0(0)).Write(slice0(1), 0, 0, 0)
	m.Client(slice0(0)).Write(slice0(2), 0, 0, 64)
	s.Run()
	st := m.Stats()
	if st.NodeSent(0) != 2 || st.NodeReceived(1) != 1 || st.NodeReceived(2) != 1 {
		t.Fatalf("per-node stats: sent0=%d recv1=%d recv2=%d", st.NodeSent(0), st.NodeReceived(1), st.NodeReceived(2))
	}
	if st.SentBytes != 32+96 {
		t.Fatalf("sent bytes = %d, want 128", st.SentBytes)
	}
	if st.NodeSent(99) != 0 || st.NodeReceived(600) != 0 {
		t.Fatal("out-of-range node stats should be zero")
	}
}

func TestLinkBusyAccounting(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	m.Client(slice0(a)).Write(slice0(m.NodeAt(topo.C(1, 0, 0)).ID), 0, 0, 256)
	s.Run()
	busy := m.LinkBusy(a, topo.Port{Dim: topo.X, Dir: +1})
	if busy != m.Model.LinkService(288) {
		t.Fatalf("link busy = %v, want %v", busy, m.Model.LinkService(288))
	}
	if m.LinkBusy(a, topo.Port{Dim: topo.X, Dir: -1}) != 0 {
		t.Fatal("unused link shows busy time")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		s := sim.New()
		m := Default512(s)
		var avails []sim.Time
		m.OnDeliver = func(pkt *packet.Packet, dst packet.Client, at sim.Time) {
			avails = append(avails, at)
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			src := slice0(topo.NodeID(rng.Intn(512)))
			dst := slice0(topo.NodeID(rng.Intn(512)))
			if src == dst {
				continue
			}
			m.Client(src).Write(dst, 0, 0, rng.Intn(257))
		}
		s.Run()
		return avails
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWaitRemoteChargesAccumPoll(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	acc := packet.Client{Node: 2, Kind: packet.Accum0}
	var local, remote sim.Time
	m.Client(acc).Wait(0, 1, func() { local = s.Now() })
	m.Client(acc).WaitRemote(0, 1, func() { remote = s.Now() })
	m.Client(slice0(0)).Accumulate(acc, 0, 0, 8, 1)
	s.Run()
	if remote.Sub(local) != m.Model.AccumPoll {
		t.Fatalf("remote poll penalty = %v, want %v", remote.Sub(local), m.Model.AccumPoll)
	}
}

func TestInvalidPacketPanics(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid packet")
		}
	}()
	m.Client(slice0(0)).Write(slice0(1), 0, 0, 300)
}

func TestInOrderMulticastAfterUnicasts(t *testing.T) {
	// The migration idiom: in-order unicast messages followed by an
	// in-order multicast sync write on the same pairs; the sync must not
	// become available before the messages.
	s := sim.New()
	m := Default512(s)
	a := m.NodeAt(topo.C(0, 0, 0)).ID
	b := m.NodeAt(topo.C(1, 0, 0)).ID
	m.SetMulticast(a, 3, packet.McEntry{Out: []topo.Port{{Dim: topo.X, Dir: +1}}})
	m.SetMulticast(b, 3, packet.McEntry{Local: []packet.ClientKind{packet.Slice0}})

	var msgAt, syncAt sim.Time
	m.OnDeliver = func(p *packet.Packet, dst packet.Client, at sim.Time) {
		if p.Kind == packet.Message {
			msgAt = at
		} else {
			syncAt = at
		}
	}
	src := m.Client(slice0(a))
	// The big message is sent first; without the in-order guarantee the
	// small sync write would overtake it (it skips the payload
	// serialization the 256-byte message pays).
	src.Send(&packet.Packet{
		Kind: packet.Message, Dst: slice0(b), Multicast: packet.NoMulticast,
		Counter: packet.NoCounter, Bytes: 256, InOrder: true,
	})
	src.Send(&packet.Packet{
		Kind: packet.Write, Multicast: 3, Counter: 9, Bytes: 8, InOrder: true,
	})
	s.Run()
	if msgAt == 0 || syncAt == 0 {
		t.Fatal("deliveries missing")
	}
	if syncAt < msgAt {
		t.Fatalf("sync committed at %v before the message at %v", syncAt, msgAt)
	}
}

func TestOverlappingWritesLastWins(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	dst := slice0(4)
	src := m.Client(slice0(3))
	src.Write(dst, 0, 0, 8, 1)
	src.Write(dst, 0, 0, 8, 2)
	s.Run()
	// Same route, same size: deliveries keep send order; the second write
	// overwrites the first.
	if got := m.Client(dst).Mem(0, 1)[0]; got != 2 {
		t.Fatalf("final word = %v, want 2", got)
	}
}

func TestSendGapPacesInjection(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	var sendTimes []sim.Time
	m.OnSend = func(p *packet.Packet, at sim.Time) { sendTimes = append(sendTimes, at) }
	src := m.Client(slice0(0))
	for i := 0; i < 5; i++ {
		src.Write(slice0(1), 0, i, 0)
	}
	s.Run()
	for i := 1; i < len(sendTimes); i++ {
		if got := sendTimes[i].Sub(sendTimes[i-1]); got != m.Model.SliceSendGap {
			t.Fatalf("injection spacing %v, want %v", got, m.Model.SliceSendGap)
		}
	}
}

func TestHTISFasterDelivery(t *testing.T) {
	// The HTIS ingest port drains a saturating packet stream faster than a
	// slice's: four neighbouring nodes flood the destination concurrently
	// so the receive port, not the senders, is the bottleneck.
	drain := func(kind packet.ClientKind) sim.Dur {
		s := sim.New()
		m := Default512(s)
		dstNode := m.NodeAt(topo.C(1, 1, 1)).ID
		dst := packet.Client{Node: dstNode, Kind: kind}
		srcs := []topo.Coord{topo.C(0, 1, 1), topo.C(2, 1, 1), topo.C(1, 0, 1), topo.C(1, 2, 1)}
		const per = 100
		var done sim.Time
		m.Client(dst).Wait(0, uint64(len(srcs)*per), func() { done = s.Now() })
		for _, c := range srcs {
			src := m.Client(slice0(m.NodeAt(c).ID))
			for i := 0; i < per; i++ {
				src.Write(dst, 0, i, 64)
			}
		}
		s.Run()
		return sim.Dur(done)
	}
	if htis, slice := drain(packet.HTIS), drain(packet.Slice2); htis >= slice {
		t.Fatalf("HTIS drain %v not faster than slice drain %v", htis, slice)
	}
}

func TestResetStats(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	m.Client(slice0(0)).Write(slice0(1), 0, 0, 8)
	s.Run()
	if m.Stats().Sent == 0 {
		t.Fatal("no traffic recorded")
	}
	m.ResetStats()
	st := m.Stats()
	if st.Sent != 0 || st.Received != 0 || st.NodeSent(0) != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestInOrderIndependentPairsDoNotBlock(t *testing.T) {
	// In-order applies per (source, destination) pair: traffic on one pair
	// must not delay another pair's deliveries.
	s := sim.New()
	m := Default512(s)
	var cAt, bAt sim.Time
	m.OnDeliver = func(p *packet.Packet, dst packet.Client, at sim.Time) {
		if dst.Node == 2 {
			bAt = at
		} else {
			cAt = at
		}
	}
	src := m.Client(slice0(0))
	// Big in-order packet to node 2, then small in-order packet to node 1:
	// different pairs, so the small one may arrive first.
	src.Send(&packet.Packet{Kind: packet.Write, Dst: slice0(2), Multicast: packet.NoMulticast,
		Counter: 0, Bytes: 256, InOrder: true})
	src.Send(&packet.Packet{Kind: packet.Write, Dst: slice0(1), Multicast: packet.NoMulticast,
		Counter: 0, Bytes: 0, InOrder: true})
	s.Run()
	if cAt == 0 || bAt == 0 {
		t.Fatal("deliveries missing")
	}
	if cAt >= bAt {
		t.Fatalf("independent pair delayed: small %v, big %v", cAt, bAt)
	}
}
