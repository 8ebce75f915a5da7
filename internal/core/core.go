// Package core implements the paper's central communication paradigm:
// counted remote writes over fixed communication patterns.
//
// A Pattern captures the three requirements the paper identifies for
// formulating communication as counted remote writes:
//
//  1. The communication pattern is fixed, so a sender can push data
//     directly to a preallocated address in its destination's local memory
//     (receive-side storage buffers are allocated before a simulation
//     begins and kept stable).
//  2. The total number of packets sent to each receiver is fixed and known
//     in advance, so the receiver can poll a single synchronization counter
//     to learn that all data required for a computation has arrived —
//     synchronization is embedded within communication.
//  3. Buffer availability is inferred from dataflow dependencies (rounds):
//     a sender may reuse a destination buffer in round r+1 only because
//     the receiver's round-r computation has completed, which the
//     application proves by advancing the round.
//
// The type system enforces these invariants: flows declare their packet
// count up front, Freeze locks the pattern, sending more packets than
// declared panics, and completion targets are derived from the frozen
// expected counts rather than from what was actually sent.
package core

import (
	"fmt"

	"anton/internal/machine"
	"anton/internal/packet"
)

// Flow is one fixed sender-to-receiver lane within a Pattern: a known
// number of packets of a known size, landing in a preallocated buffer.
type Flow struct {
	Src   packet.Client
	Dst   packet.Client
	Count int // packets per round, fixed at declaration
	Bytes int // wire payload bytes per packet
	Words int // payload words reserved per packet at the destination
	Addr  int // preallocated base address in Dst's local memory
	// Accumulate marks flows whose packets add into the destination
	// (which must be an accumulation memory) instead of overwriting.
	Accumulate bool

	p    *Pattern
	sent int // packets sent in the current round
}

// Pattern is a frozen set of flows sharing one synchronization counter
// label. All packets of all flows in a round must arrive before any
// receiver's completion callback fires.
type Pattern struct {
	Name string

	m       *machine.Machine
	ctr     packet.CounterID
	flows   []*Flow
	mcFlows []*McFlow
	frozen  bool
	round   int
	// expected is the per-destination packet count per round, the quantity
	// the paper's receivers precompute.
	expected  map[packet.Client]uint64
	nextAddr  map[packet.Client]int
	accumBase map[packet.Client]int
}

func okNext(p *Pattern, dst packet.Client) bool {
	_, ok := p.nextAddr[dst]
	return ok
}

// NewPattern creates an empty pattern on m using synchronization counter
// label ctr at every destination. Destination buffer addresses are
// allocated starting at base (use distinct base ranges for patterns that
// share a destination client).
func NewPattern(m *machine.Machine, name string, ctr packet.CounterID, base int) *Pattern {
	return &Pattern{
		Name:      name,
		m:         m,
		ctr:       ctr,
		expected:  make(map[packet.Client]uint64),
		nextAddr:  makeBase(base),
		accumBase: make(map[packet.Client]int),
	}
}

func makeBase(base int) map[packet.Client]int {
	m := make(map[packet.Client]int)
	// The base is applied lazily per destination on first allocation.
	m[packet.Client{Node: -1}] = base
	return m
}

func (p *Pattern) base() int { return p.nextAddr[packet.Client{Node: -1}] }

// AddFlow declares a flow of count packets of bytesPer wire-payload bytes
// each from src to dst, reserving wordsPer payload words per packet in
// dst's local memory. It returns the flow for use with Push.
func (p *Pattern) AddFlow(src, dst packet.Client, count, bytesPer, wordsPer int) *Flow {
	return p.addFlow(src, dst, count, bytesPer, wordsPer, false)
}

// AddAccumFlow declares an accumulating flow into an accumulation memory.
func (p *Pattern) AddAccumFlow(src, dst packet.Client, count, bytesPer, wordsPer int) *Flow {
	if !dst.Kind.IsAccum() {
		panic(fmt.Sprintf("core: accumulation flow into %v", dst))
	}
	return p.addFlow(src, dst, count, bytesPer, wordsPer, true)
}

func (p *Pattern) addFlow(src, dst packet.Client, count, bytesPer, wordsPer int, accum bool) *Flow {
	if p.frozen {
		panic("core: AddFlow on frozen pattern")
	}
	if count <= 0 {
		panic("core: flow count must be positive")
	}
	addr, ok := p.nextAddr[dst]
	if !ok {
		addr = p.base()
	}
	f := &Flow{
		Src: src, Dst: dst, Count: count, Bytes: bytesPer, Words: wordsPer,
		Addr: addr, Accumulate: accum, p: p,
	}
	if accum {
		// Accumulating flows into the same destination deliberately alias
		// one address range so contributions from many sources sum in
		// place; reserve the widest range seen.
		base, ok := p.accumBase[dst]
		if !ok {
			base = addr
			p.accumBase[dst] = base
		}
		f.Addr = base
		if end := base + count*wordsPer; end > p.nextAddr[dst] || !okNext(p, dst) {
			p.nextAddr[dst] = end
		}
	} else {
		p.nextAddr[dst] = addr + count*wordsPer
	}
	p.flows = append(p.flows, f)
	p.expected[dst] += uint64(count)
	return f
}

// Freeze locks the pattern. After Freeze the expected packet counts are
// immutable and flows may begin sending.
func (p *Pattern) Freeze() {
	if p.frozen {
		panic("core: pattern already frozen")
	}
	p.frozen = true
	p.round = 1
}

// Expected returns the number of packets dst receives per round — the
// receiver's precomputed target.
func (p *Pattern) Expected(dst packet.Client) uint64 { return p.expected[dst] }

// Round returns the current round number (1-based; 0 before Freeze).
func (p *Pattern) Round() int { return p.round }

// Push sends the flow's next packet of the round carrying payload. The
// destination address is the packet's preallocated slot. Sending more than
// the declared Count panics: the entire paradigm rests on the receiver's
// packet count being exact.
func (f *Flow) Push(payload ...float64) {
	p := f.p
	if !p.frozen {
		panic("core: Push before Freeze")
	}
	if f.sent >= f.Count {
		panic(fmt.Sprintf("core: flow %v->%v exceeded its fixed count %d", f.Src, f.Dst, f.Count))
	}
	addr := f.Addr
	if !f.Accumulate {
		addr += f.sent * f.Words
	}
	f.sent++
	kind := packet.Write
	if f.Accumulate {
		kind = packet.Accumulate
	}
	p.m.Client(f.Src).Send(&packet.Packet{
		Kind: kind, Dst: f.Dst, Multicast: packet.NoMulticast,
		Counter: p.ctr, Addr: addr, Bytes: f.Bytes, Payload: payload,
		Tag: p.Name,
	})
}

// PushAll sends all of the flow's packets for this round back to back,
// without payload data (timing-only use).
func (f *Flow) PushAll() {
	for f.sent < f.Count {
		f.Push()
	}
}

// Sent returns how many packets the flow has pushed this round.
func (f *Flow) Sent() int { return f.sent }

// OnComplete schedules fn at the simulated instant dst has received every
// packet of the current round — i.e. when dst's synchronization counter
// reaches round * expected. This is the "successful poll" of Figure 4.
func (p *Pattern) OnComplete(dst packet.Client, fn func()) {
	if !p.frozen {
		panic("core: OnComplete before Freeze")
	}
	exp := p.expected[dst]
	if exp == 0 {
		panic(fmt.Sprintf("core: %v is not a destination of pattern %q", dst, p.Name))
	}
	target := uint64(p.round) * exp
	cl := p.m.Client(dst)
	if dst.Kind.IsAccum() {
		// Accumulation-memory counters are polled by slices across the
		// on-chip network and incur the larger polling latency.
		cl.WaitRemote(p.ctr, target, fn)
		return
	}
	cl.Wait(p.ctr, target, fn)
}

// NextRound advances the pattern to the next round. Callers invoke it only
// after the dataflow dependencies prove every destination buffer is free —
// exactly the paper's "rely on dataflow dependencies to determine when
// destination buffers are available". Flows that have not sent their full
// count panic, since the receivers' counters would desynchronize.
func (p *Pattern) NextRound() {
	if !p.frozen {
		panic("core: NextRound before Freeze")
	}
	for _, f := range p.flows {
		if f.sent != f.Count {
			panic(fmt.Sprintf("core: flow %v->%v sent %d of %d packets this round",
				f.Src, f.Dst, f.sent, f.Count))
		}
		f.sent = 0
	}
	for _, f := range p.mcFlows {
		if f.sent != f.Count {
			panic(fmt.Sprintf("core: multicast flow from %v sent %d of %d packets this round",
				f.Src, f.sent, f.Count))
		}
		f.sent = 0
	}
	p.round++
}

// Machine returns the machine the pattern runs on.
func (p *Pattern) Machine() *machine.Machine { return p.m }

// McFlow is a fixed multicast lane within a Pattern: count packets per
// round injected through a pre-installed multicast pattern, delivering to
// a declared set of destination clients. The MD position broadcast to up
// to 17 HTIS units is this shape.
type McFlow struct {
	Src   packet.Client
	ID    packet.MulticastID
	Dests []packet.Client
	Count int
	Bytes int
	Words int // payload words reserved per packet at each destination
	Addr  int

	p    *Pattern
	sent int
}

// AddMcFlow declares a multicast flow: the caller must have installed
// multicast pattern id whose delivery set is exactly dests. Each
// destination's expected per-round count increases by count.
func (p *Pattern) AddMcFlow(src packet.Client, id packet.MulticastID, dests []packet.Client, count, bytesPer, wordsPer int) *McFlow {
	if p.frozen {
		panic("core: AddMcFlow on frozen pattern")
	}
	if count <= 0 {
		panic("core: flow count must be positive")
	}
	if len(dests) == 0 {
		panic("core: multicast flow needs destinations")
	}
	// All destinations share one preallocated buffer region (a multicast
	// write lands at the same address everywhere); reserve it at the
	// maximum of the destinations' current allocation points.
	addr := 0
	for _, d := range dests {
		a, ok := p.nextAddr[d]
		if !ok {
			a = p.base()
		}
		if a > addr {
			addr = a
		}
	}
	f := &McFlow{Src: src, ID: id, Dests: append([]packet.Client(nil), dests...),
		Count: count, Bytes: bytesPer, Words: wordsPer, Addr: addr, p: p}
	for _, d := range dests {
		p.nextAddr[d] = addr + count*wordsPer
		p.expected[d] += uint64(count)
	}
	p.mcFlows = append(p.mcFlows, f)
	return f
}

// Push injects the flow's next multicast packet of the round.
func (f *McFlow) Push(payload ...float64) {
	p := f.p
	if !p.frozen {
		panic("core: Push before Freeze")
	}
	if f.sent >= f.Count {
		panic(fmt.Sprintf("core: multicast flow from %v exceeded its fixed count %d", f.Src, f.Count))
	}
	addr := f.Addr + f.sent*f.Words
	f.sent++
	p.m.Client(f.Src).Send(&packet.Packet{
		Kind: packet.Write, Multicast: f.ID,
		Counter: p.ctr, Addr: addr, Bytes: f.Bytes, Payload: payload,
		Tag: p.Name,
	})
}

// PushAll sends the remaining packets of the round without payloads.
func (f *McFlow) PushAll() {
	for f.sent < f.Count {
		f.Push()
	}
}

// Sent returns how many packets the flow has pushed this round.
func (f *McFlow) Sent() int { return f.sent }
