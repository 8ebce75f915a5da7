// Package packet defines Anton's network packet format and client
// addressing. Packets contain 32 bytes of header and 0 to 256 bytes of
// payload; writes of up to 8 bytes travel entirely in the header. Write
// and accumulation packets are labelled with a synchronization-counter
// identifier that the receiving client increments on delivery, which is the
// basis of the counted-remote-write paradigm.
package packet

import (
	"fmt"

	"anton/internal/topo"
)

// Wire-format constants from the paper (Section III.A).
const (
	HeaderBytes     = 32  // every packet carries a 32-byte header
	MaxPayloadBytes = 256 // payload is 0-256 bytes
	// InlineBytes is the largest write whose data rides in the header
	// itself, adding nothing to the wire size.
	InlineBytes = 8
	// AccumWordBytes is the granularity of accumulation-packet payloads:
	// the accumulation memories add 4-byte quantities.
	AccumWordBytes = 4
	// MaxMulticastPatterns is the per-node multicast table capacity.
	MaxMulticastPatterns = 256
)

// ClientKind identifies one of the seven network clients on a node: four
// processing slices, the high-throughput interaction subsystem, and two
// accumulation memories.
type ClientKind int

// The seven per-node network clients.
const (
	Slice0 ClientKind = iota
	Slice1
	Slice2
	Slice3
	HTIS
	Accum0
	Accum1
	NumClients
)

// IsSlice reports whether k is one of the four processing slices.
func (k ClientKind) IsSlice() bool { return k >= Slice0 && k <= Slice3 }

// IsAccum reports whether k is an accumulation memory.
func (k ClientKind) IsAccum() bool { return k == Accum0 || k == Accum1 }

func (k ClientKind) String() string {
	switch k {
	case Slice0, Slice1, Slice2, Slice3:
		return fmt.Sprintf("slice%d", int(k))
	case HTIS:
		return "htis"
	case Accum0:
		return "accum0"
	case Accum1:
		return "accum1"
	}
	return fmt.Sprintf("client(%d)", int(k))
}

// Slice returns the ClientKind for processing slice i in [0,4).
func Slice(i int) ClientKind {
	if i < 0 || i > 3 {
		panic(fmt.Sprintf("packet: slice index %d out of range", i))
	}
	return Slice0 + ClientKind(i)
}

// Accum returns the ClientKind for accumulation memory i in [0,2).
func Accum(i int) ClientKind {
	if i < 0 || i > 1 {
		panic(fmt.Sprintf("packet: accum index %d out of range", i))
	}
	return Accum0 + ClientKind(i)
}

// Client addresses a specific network client on a specific node.
type Client struct {
	Node topo.NodeID
	Kind ClientKind
}

func (c Client) String() string { return fmt.Sprintf("n%d/%s", c.Node, c.Kind) }

// Kind distinguishes the packet types the network carries.
type Kind int

const (
	// Write stores its payload at a pre-arranged address in the target
	// client's local memory and increments the labelled sync counter.
	Write Kind = iota
	// Accumulate adds its payload (4-byte quantities) to the values stored
	// at the target address in an accumulation memory, then increments the
	// labelled sync counter.
	Accumulate
	// Message is delivered to the target processing slice's
	// hardware-managed circular FIFO rather than to a fixed address; used
	// when communication cannot be formulated as counted remote writes
	// (e.g. atom migration).
	Message
)

func (k Kind) String() string {
	switch k {
	case Write:
		return "write"
	case Accumulate:
		return "accum"
	case Message:
		return "message"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CounterID labels one of a client's synchronization counters.
type CounterID int

// NoCounter marks packets (FIFO messages) that do not increment a counter.
const NoCounter CounterID = -1

// MulticastID indexes a node's multicast lookup table.
type MulticastID int

// NoMulticast marks unicast packets.
const NoMulticast MulticastID = -1

// Packet is a network packet. Payload values are logical 64-bit words used
// by functional models (the MD engine's positions, forces, grid values);
// Bytes is the wire payload size used by all timing models, and need not
// equal 8*len(Payload) — fine-grained MD packets carry compressed fixed
// point data on real Anton.
type Packet struct {
	Kind      Kind
	Src       Client
	Dst       Client      // unicast destination; ignored when Multicast >= 0
	Multicast MulticastID // multicast pattern, or NoMulticast
	Counter   CounterID   // sync counter to increment on delivery
	Addr      int         // destination local-memory address (word index)
	Bytes     int         // wire payload size in bytes (0..256)
	Payload   []float64   // functional payload (may be nil for timing-only runs)
	// InOrder selects the network's in-order delivery guarantee between a
	// fixed source-destination pair (used by migration synchronization).
	InOrder bool
	// Seq is the canonical global send sequence number, assigned by the
	// machine when the injection commits; applications must not set it.
	Seq uint64
	// Ticket is the per-(src,dst) in-order delivery ticket, drawn by the
	// machine at send time in program order for unicast InOrder packets.
	// Simulation-internal bookkeeping: not part of the wire format.
	Ticket uint64
	// Tickets carries the per-destination in-order tickets of a multicast
	// InOrder packet, in the deterministic (BFS) resolution order of the
	// pattern tables. Fan-out copies share the slice read-only.
	// Simulation-internal bookkeeping: not part of the wire format.
	Tickets []DstTicket
	// Tag is an opaque label for tracing and tests.
	Tag string
}

// DstTicket pairs one multicast destination with its in-order ticket.
type DstTicket struct {
	Dst    Client
	Ticket uint64
}

// WireBytes returns the packet's total size on a link: header plus payload,
// with payloads of up to 8 bytes carried inside the header.
func (p *Packet) WireBytes() int {
	if p.Bytes <= InlineBytes {
		return HeaderBytes
	}
	return HeaderBytes + p.Bytes
}

// Validate checks the structural invariants of a packet.
func (p *Packet) Validate() error {
	if p.Bytes < 0 || p.Bytes > MaxPayloadBytes {
		return fmt.Errorf("packet: payload %d bytes outside [0,%d]", p.Bytes, MaxPayloadBytes)
	}
	if p.Kind == Accumulate && p.Bytes%AccumWordBytes != 0 {
		return fmt.Errorf("packet: accumulation payload %d bytes not a multiple of %d", p.Bytes, AccumWordBytes)
	}
	if p.Kind == Message && p.Counter != NoCounter {
		return fmt.Errorf("packet: FIFO message must not carry a counter label")
	}
	if p.Kind != Message && p.Counter < 0 {
		return fmt.Errorf("packet: %v packet requires a counter label", p.Kind)
	}
	if p.Multicast >= MaxMulticastPatterns {
		return fmt.Errorf("packet: multicast pattern %d exceeds table capacity %d", p.Multicast, MaxMulticastPatterns)
	}
	return nil
}

// McEntry is one node's multicast table entry: the set of local clients to
// deliver to and the outgoing torus ports to forward on. This matches the
// paper's mechanism: "a table lookup is used to determine the set of local
// clients and outgoing network links to which the packet should be
// forwarded".
type McEntry struct {
	Local []ClientKind
	Out   []topo.Port
}

// McTable is a per-node multicast lookup table, indexed by pattern id.
// It grows to the highest id installed, at most MaxMulticastPatterns.
type McTable struct {
	entries []mcSlot
}

type mcSlot struct {
	e  McEntry
	ok bool
}

// NewMcTable returns an empty table.
func NewMcTable() *McTable { return &McTable{} }

// Set installs pattern id. An id outside [0, MaxMulticastPatterns)
// panics, matching the hardware's 256-entry capacity.
func (t *McTable) Set(id MulticastID, e McEntry) {
	if id < 0 || id >= MaxMulticastPatterns {
		panic(fmt.Sprintf("packet: multicast id %d out of range", id))
	}
	if int(id) >= len(t.entries) {
		t.entries = append(t.entries, make([]mcSlot, int(id)+1-len(t.entries))...)
	}
	t.entries[id] = mcSlot{e, true}
}

// Lookup returns the entry for id.
func (t *McTable) Lookup(id MulticastID) (McEntry, bool) {
	if id < 0 || int(id) >= len(t.entries) {
		return McEntry{}, false
	}
	s := &t.entries[id]
	return s.e, s.ok
}

// Len returns the number of installed patterns.
func (t *McTable) Len() int {
	n := 0
	for _, s := range t.entries {
		if s.ok {
			n++
		}
	}
	return n
}
