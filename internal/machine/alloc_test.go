package machine

import (
	"runtime"
	"testing"
	"unsafe"

	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates on its own.
var raceEnabled bool

// A packet-branch record fits one 64-byte cache line: every event on the
// packet path starts by loading it, usually after it has sat in a deep
// queue, so a record spanning two lines costs a second miss.
func TestBranchRecordFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(branch{}); size > 64 {
		t.Errorf("branch record is %d bytes, want at most 64", size)
	}
}

// Building a machine allocates a fixed handful of objects, whatever its
// node count: the nodes, with their links and multicast tables, are one
// block, and no client exists until something addresses it. The block
// holds only what the model reads: a link is a zero resource and a
// neighbour is an ID, so a Default512 build allocates 164,416 bytes
// (205,376 when each link kept its simulator and each node six neighbour
// pointers); the bound leaves ~3% for the runtime's rounding.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := sim.New()
	model := noc.DefaultModel()
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"Default512", func() { Default512(s) }},
		{"4x4x4", func() { New(s, topo.NewTorus(4, 4, 4), model) }},
	} {
		if got := testing.AllocsPerRun(10, tc.build); got > 16 {
			t.Errorf("%s build: %v allocations, want at most 16", tc.name, got)
		}
	}
	const runs, maxBytes = 10, 170_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Default512(s)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > maxBytes {
		t.Errorf("Default512 build: %d bytes, want at most %d", got, maxBytes)
	}
}

// BenchmarkBuild times a Default512 build, the machine every serving-tier
// miss and every fresh-machine experiment starts from.
func BenchmarkBuild(b *testing.B) {
	s := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Default512(s)
	}
}

// The packet path allocates nothing per hop, delivery or commit: once the
// branch free list and the event queue have warmed up, a counted write
// run to completion allocates only its packet, and a multicast write's
// deliveries share the sender's packet, so fanning out to more
// destinations adds no allocation. With the free list empty, the write
// allocates its record too, and nothing else: the record is its own
// event handler.
func TestPacketPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := sim.New()
	m := Default512(s)
	a := m.NodeAt(topo.C(0, 0, 0))
	src := m.Client(slice0(a.ID))
	dst := slice0(m.NodeAt(topo.C(1, 0, 0)).ID)
	if got := testing.AllocsPerRun(100, func() {
		src.Write(dst, 0, 0, 0)
		s.Run()
	}); got > 1 {
		t.Errorf("single-hop counted write: %v allocations, want at most 1 (the packet)", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		m.free = m.free[:0]
		src.Write(dst, 0, 0, 0)
		s.Run()
	}); got != 2 {
		t.Errorf("single-hop counted write with an empty free list: %v allocations, want 2 (the packet and its record)", got)
	}

	// Pattern 1 reaches one client one hop away; pattern 2 runs along the
	// whole X ring and delivers to all four slices and the HTIS of each of
	// the other seven nodes.
	const one, ring = 1, 2
	m.SetMulticast(a.ID, one, packet.McEntry{Out: []topo.Port{{Dim: topo.X, Dir: +1}}})
	m.SetMulticast(m.NodeAt(topo.C(1, 0, 0)).ID, one, packet.McEntry{Local: []packet.ClientKind{packet.Slice0}})
	kinds := []packet.ClientKind{packet.Slice0, packet.Slice1, packet.Slice2, packet.Slice3, packet.HTIS}
	for x := 0; x < 8; x++ {
		e := packet.McEntry{Out: []topo.Port{{Dim: topo.X, Dir: +1}}}
		if x > 0 {
			e.Local = kinds
		}
		if x == 7 {
			e.Out = nil
		}
		m.SetMulticast(m.NodeAt(topo.C(x, 0, 0)).ID, ring, e)
	}
	for _, tc := range []struct {
		id    packet.MulticastID
		dests uint64
	}{{one, 1}, {ring, 7 * uint64(len(kinds))}} {
		before := m.Stats().Received
		got := testing.AllocsPerRun(100, func() {
			src.MulticastWrite(tc.id, 1, 0, 8)
			s.Run()
		})
		// AllocsPerRun makes one warm-up call before its 100 runs.
		if n := m.Stats().Received - before; n != 101*tc.dests {
			t.Fatalf("pattern %d: %d deliveries in 101 writes, want %d", tc.id, n, 101*tc.dests)
		}
		if got > 1 {
			t.Errorf("multicast write to %d clients: %v allocations, want at most 1 (the packet)", tc.dests, got)
		}
	}
}

// Local memory ends at the highest word addressed: a first write far
// into an empty memory allocates exactly up to its last word.
func TestMemWordsFirstWrite(t *testing.T) {
	s := sim.New()
	m := Default512(s)
	m.Client(slice0(0)).Write(slice0(1), 0, 4096, 24, 1, 2, 3)
	s.Run()
	c := m.Client(slice0(1))
	if got := c.MemWords(); got != 4096+3 {
		t.Fatalf("memory after a 3-word write at word 4096 = %d words, want %d", got, 4096+3)
	}
	if got := c.Mem(4096, 3); got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload = %v", got)
	}
	if got := m.Client(slice0(2)).MemWords(); got != 0 {
		t.Fatalf("untouched client holds %d words", got)
	}
}
