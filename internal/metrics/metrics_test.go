package metrics

import (
	"encoding/json"
	"testing"

	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// TestNilRecorderSafe pins the disabled state: every recording method and
// accessor must be a no-op on a nil *Recorder, because that is what the
// instrumented models hold when no recorder is attached.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	src := packet.Client{Node: 0, Kind: packet.Slice0}
	r.PacketSend(1, src, 0, 42)
	r.HopDepart(1, 0, topo.Port{Dim: topo.X, Dir: +1}, 61)
	r.LinkTransfer(1, 0, topo.Port{Dim: topo.X, Dir: +1}, 61, 100, 32, 0)
	r.HopArrive(1, 1, 101)
	r.DeliverStart(1, src, 126)
	r.Deliver(1, src, 162)
	r.CountArm(src, 9, 1, 0)
	r.CountFire(src, 9, 1, 162)
	r.ClusterDeliver(1, 0, 100)
	r.Span("phase", 0, 100)
	if r.Events() != nil || r.Spans() != nil || r.Links() != nil || r.Lifecycles() != nil {
		t.Fatal("nil recorder returned data")
	}
	if a, f := r.CounterWaits(); a != 0 || f != 0 {
		t.Fatal("nil recorder counted waits")
	}
	if r.AntonLatencies() != nil || r.ClusterLatencies() != nil {
		t.Fatal("nil recorder returned latencies")
	}
	var tr struct {
		Events []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(r.ChromeTrace(), &tr); err != nil {
		t.Fatalf("nil recorder chrome trace is not valid JSON: %v", err)
	}
	if len(tr.Events) != 0 {
		t.Fatal("nil recorder chrome trace has events")
	}
}

// record the canonical one-hop X+ 0-byte lifecycle of the paper's Figure
// 6: inject 0, ring-enter 42 ns, depart 61 ns, arrive 101 ns, deliver
// start 126 ns, commit 162 ns.
func recordOneHop(r *Recorder, seq uint64) {
	ns := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Ns) }
	src := packet.Client{Node: 0, Kind: packet.Slice0}
	dst := packet.Client{Node: 1, Kind: packet.Slice0}
	xp := topo.Port{Dim: topo.X, Dir: +1}
	r.PacketSend(seq, src, ns(0), ns(42))
	r.HopDepart(seq, 0, xp, ns(61))
	r.LinkTransfer(seq, 0, xp, ns(61), 32*200, 32, 0)
	r.HopArrive(seq, 1, ns(101))
	r.DeliverStart(seq, dst, ns(126))
	r.Deliver(seq, dst, ns(162))
}

func TestLifecycleReconstruction(t *testing.T) {
	r := New()
	recordOneHop(r, 7)
	lcs := r.Lifecycles()
	if len(lcs) != 1 {
		t.Fatalf("got %d lifecycles, want 1", len(lcs))
	}
	lc := lcs[0]
	if lc.Seq != 7 || len(lc.Hops) != 1 {
		t.Fatalf("lifecycle = %+v", lc)
	}
	if got := lc.E2E(); got != 162*sim.Ns {
		t.Fatalf("E2E = %v, want 162ns", got)
	}
	stages := lc.Stages()
	wantNs := map[string]float64{
		"send initiation":                                    42,
		"source ring traversal":                              19,
		"link adapters + wire (X hop 1)":                     40,
		"payload serialization + destination ring traversal": 25,
		"memory write + counter increment + successful poll": 36,
	}
	if len(stages) != len(wantNs) {
		t.Fatalf("got %d stages: %v", len(stages), stages)
	}
	var total sim.Dur
	for _, st := range stages {
		if w, ok := wantNs[st.Label]; !ok || st.Dur.Ns() != w {
			t.Fatalf("stage %q = %.1f ns, want %v", st.Label, st.Dur.Ns(), wantNs[st.Label])
		}
		total += st.Dur
	}
	if total != lc.E2E() {
		t.Fatalf("stages sum %v != E2E %v", total, lc.E2E())
	}
}

// TestLifecycleSkipsOtherSequenceSpaces pins that counter and cluster
// events — which reuse the Seq field for other identifiers — never
// corrupt packet lifecycle reconstruction.
func TestLifecycleSkipsOtherSequenceSpaces(t *testing.T) {
	r := New()
	recordOneHop(r, 7)
	c := packet.Client{Node: 3, Kind: packet.Slice1}
	r.CountArm(c, 5, 7, 0) // target 7 collides with packet seq 7
	r.CountFire(c, 5, 7, 100)
	seq := r.ClusterSend(0, 1, 32, 0)
	r.ClusterDeliver(seq, 1, 50)
	lcs := r.Lifecycles()
	if len(lcs) != 1 || len(lcs[0].Hops) != 1 || lcs[0].E2E() != 162*sim.Ns {
		t.Fatalf("foreign events corrupted lifecycles: %+v", lcs)
	}
	if got := r.ClusterLatencies(); len(got) != 1 || got[0] != 50 {
		t.Fatalf("cluster latencies = %v", got)
	}
}

// TestMulticastLifecycleExcluded: a packet delivered to several
// destinations has a branching timeline and must be excluded from stage
// attribution while still contributing per-destination latency samples.
func TestMulticastLifecycleExcluded(t *testing.T) {
	r := New()
	src := packet.Client{Node: 0, Kind: packet.Slice0}
	d1 := packet.Client{Node: 1, Kind: packet.Slice0}
	d2 := packet.Client{Node: 2, Kind: packet.Slice0}
	r.PacketSend(1, src, 0, 42)
	r.Deliver(1, d1, 162)
	r.Deliver(1, d2, 238)
	if lcs := r.Lifecycles(); len(lcs) != 0 {
		t.Fatalf("multicast lifecycle not excluded: %+v", lcs)
	}
	lats := r.AntonLatencies()
	if len(lats) != 2 || lats[0] != 162 || lats[1] != 238 {
		t.Fatalf("latencies = %v, want [162 238]", lats)
	}
}

func TestLinkCounters(t *testing.T) {
	r := New()
	xp := topo.Port{Dim: topo.X, Dir: +1}
	yp := topo.Port{Dim: topo.Y, Dir: +1}
	r.LinkTransfer(1, 5, xp, 100, 6400, 32, 0)
	r.LinkTransfer(2, 5, xp, 6500, 6400, 32, 400)
	r.LinkTransfer(3, 2, yp, 0, 57600, 288, 0)
	links := r.Links()
	if len(links) != 2 {
		t.Fatalf("got %d links, want 2", len(links))
	}
	// Sorted by (node, port): node 2 Y+ first, then node 5 X+.
	if links[0].Key.Node != 2 || links[1].Key.Node != 5 {
		t.Fatalf("links unsorted: %+v", links)
	}
	l := links[1]
	if l.Packets != 2 || l.Bytes != 64 || l.Busy != 12800 {
		t.Fatalf("link counters = %+v", l)
	}
	if l.Queued != 1 || l.MaxWait != 400 {
		t.Fatalf("queueing counters = %+v", l)
	}
}

func TestEventsSortedStable(t *testing.T) {
	r := New()
	src := packet.Client{Node: 0, Kind: packet.Slice0}
	// Recorded out of order: Events() must sort by time but keep the
	// recording order of same-instant events.
	r.Deliver(2, src, 100)
	r.Deliver(1, src, 50)
	r.Deliver(3, src, 100)
	ev := r.Events()
	if ev[0].Seq != 1 || ev[1].Seq != 2 || ev[2].Seq != 3 {
		t.Fatalf("events not stably sorted: %+v", ev)
	}
}
