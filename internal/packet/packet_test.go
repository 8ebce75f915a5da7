package packet

import (
	"testing"
	"testing/quick"

	"anton/internal/topo"
)

func TestWireBytes(t *testing.T) {
	cases := []struct {
		payload, want int
	}{
		{0, 32}, // zero-byte write: header only
		{8, 32}, // up to 8 bytes ride in the header
		{9, 41}, // beyond 8 bytes, payload is carried separately
		{256, 288},
	}
	for _, c := range cases {
		p := Packet{Kind: Write, Counter: 0, Bytes: c.payload}
		if got := p.WireBytes(); got != c.want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Packet{Kind: Write, Counter: 0, Bytes: 32}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid packet rejected: %v", err)
	}
	bad := []Packet{
		{Kind: Write, Counter: 0, Bytes: -1},
		{Kind: Write, Counter: 0, Bytes: 257},
		{Kind: Accumulate, Counter: 0, Bytes: 6},    // not 4-byte quantized
		{Kind: Message, Counter: 3, Bytes: 8},       // FIFO message with counter
		{Kind: Write, Counter: NoCounter, Bytes: 8}, // write without counter
		{Kind: Write, Counter: 0, Bytes: 8, Multicast: 256},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad packet %d accepted", i)
		}
	}
	accOK := Packet{Kind: Accumulate, Counter: 1, Bytes: 16}
	if err := accOK.Validate(); err != nil {
		t.Fatalf("valid accumulation packet rejected: %v", err)
	}
	msgOK := Packet{Kind: Message, Counter: NoCounter, Bytes: 64}
	if err := msgOK.Validate(); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
}

// Property: wire size is monotone in payload size and bounded by
// header+payload.
func TestWireBytesMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		pa := Packet{Bytes: int(a)}
		pb := Packet{Bytes: int(b)}
		if int(a) <= int(b) && pa.WireBytes() > pb.WireBytes() {
			return false
		}
		return pa.WireBytes() >= HeaderBytes && pa.WireBytes() <= HeaderBytes+int(a)+InlineBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClientKinds(t *testing.T) {
	if NumClients != 7 {
		t.Fatalf("NumClients = %d, want 7 (paper: seven local memories per node)", NumClients)
	}
	for i := 0; i < 4; i++ {
		if !Slice(i).IsSlice() {
			t.Errorf("Slice(%d) not a slice", i)
		}
	}
	if HTIS.IsSlice() || Accum0.IsSlice() {
		t.Error("non-slice kinds reported as slices")
	}
	if !Accum0.IsAccum() || !Accum1.IsAccum() || HTIS.IsAccum() {
		t.Error("IsAccum wrong")
	}
	if Slice(2).String() != "slice2" || HTIS.String() != "htis" || Accum(1).String() != "accum1" {
		t.Error("kind strings wrong")
	}
}

func TestSliceAccumRangePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Slice(4) },
		func() { Slice(-1) },
		func() { Accum(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMcTable(t *testing.T) {
	tab := new(McTable)
	e := McEntry{Local: []ClientKind{HTIS}, Out: []topo.Port{{Dim: topo.X, Dir: 1}}}
	tab.Set(3, e)
	got, ok := tab.Lookup(3)
	if !ok || len(got.Local) != 1 || got.Local[0] != HTIS {
		t.Fatalf("Lookup(3) = %v, %v", got, ok)
	}
	if _, ok := tab.Lookup(4); ok {
		t.Fatal("Lookup of absent id succeeded")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestMcTableCapacity(t *testing.T) {
	tab := new(McTable)
	for i := 0; i < MaxMulticastPatterns; i++ {
		tab.Set(MulticastID(i), McEntry{})
	}
	// Overwriting an existing entry is fine even when full.
	tab.Set(0, McEntry{Local: []ClientKind{Slice0}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic when exceeding 256 patterns")
		}
	}()
	// The table is full and id 256 is out of range anyway; use an in-range
	// id by removing none — capacity panic fires first for a fresh id.
	tab.Set(MulticastID(255), McEntry{}) // overwrite ok
	tabFresh := new(McTable)
	for i := 0; i < MaxMulticastPatterns; i++ {
		tabFresh.Set(MulticastID(i), McEntry{})
	}
	tabFresh.Set(256, McEntry{}) // out of range: panics
}

func TestKindStrings(t *testing.T) {
	if Write.String() != "write" || Accumulate.String() != "accum" || Message.String() != "message" {
		t.Fatal("kind strings wrong")
	}
	c := Client{Node: 5, Kind: Slice1}
	if c.String() != "n5/slice1" {
		t.Fatalf("client string = %q", c.String())
	}
}
