package machine

import (
	"fmt"

	"anton/internal/packet"
	"anton/internal/sim"
)

// Client is the state of one network client: a local memory that directly
// accepts write packets, a set of synchronization counters, an injection
// port, a delivery port, and (for processing slices) the hardware-managed
// message FIFO.
type Client struct {
	Addr packet.Client

	m        *Machine
	mem      []float64
	counters []*sim.Counter // indexed by counter id, up to the highest used
	send     sim.Resource
	recv     sim.Resource
	fifo     FIFO // used by processing slices only
}

// newClient builds n's client of kind k, its ports and FIFO in one
// allocation, and installs it. Its ports are zero resources, free at time
// zero. Only Node.client calls it.
func (n *Node) newClient(k packet.ClientKind) *Client {
	m := n.m
	c := &Client{Addr: packet.Client{Node: n.ID, Kind: k}, m: m, fifo: FIFO{m: m}}
	n.clients[k] = c
	return c
}

// Send transmits pkt from this client. The call returns immediately; all
// costs are paid in simulated time. Accumulation memories cannot send
// (matching the hardware) and panic if asked to.
func (c *Client) Send(pkt *packet.Packet) {
	if c.Addr.Kind.IsAccum() {
		panic("machine: accumulation memories cannot send packets")
	}
	c.m.send(c, pkt)
}

// Write sends a counted remote write of the given wire payload size to dst,
// labelled with counter ctr, storing payload (optional) at word address
// addr in dst's local memory.
func (c *Client) Write(dst packet.Client, ctr packet.CounterID, addr, bytes int, payload ...float64) {
	c.Send(&packet.Packet{
		Kind: packet.Write, Dst: dst, Multicast: packet.NoMulticast,
		Counter: ctr, Addr: addr, Bytes: bytes, Payload: payload,
	})
}

// Accumulate sends an accumulation packet to dst (which must be an
// accumulation memory): its payload is added, element-wise, to the values
// stored at addr.
func (c *Client) Accumulate(dst packet.Client, ctr packet.CounterID, addr, bytes int, payload ...float64) {
	c.Send(&packet.Packet{
		Kind: packet.Accumulate, Dst: dst, Multicast: packet.NoMulticast,
		Counter: ctr, Addr: addr, Bytes: bytes, Payload: payload,
	})
}

// Message sends an arbitrary network message to dst's hardware-managed
// receive FIFO. Used where communication cannot be formulated as counted
// remote writes (e.g. atom migration).
func (c *Client) Message(dst packet.Client, bytes int, payload ...float64) {
	c.Send(&packet.Packet{
		Kind: packet.Message, Dst: dst, Multicast: packet.NoMulticast,
		Counter: packet.NoCounter, Bytes: bytes, Payload: payload,
	})
}

// MulticastWrite sends a counted remote write through multicast pattern id.
// Every destination client named by the pattern tables receives the write
// at the same address and counter label.
func (c *Client) MulticastWrite(id packet.MulticastID, ctr packet.CounterID, addr, bytes int, payload ...float64) {
	c.Send(&packet.Packet{
		Kind: packet.Write, Multicast: id,
		Counter: ctr, Addr: addr, Bytes: bytes, Payload: payload,
	})
}

// Counter returns the client's synchronization counter ctr, allocating it
// on first use.
func (c *Client) Counter(ctr packet.CounterID) *sim.Counter { return c.counter(ctr) }

func (c *Client) counter(ctr packet.CounterID) *sim.Counter {
	if ctr < 0 {
		panic("machine: negative counter id")
	}
	if int(ctr) >= len(c.counters) {
		c.counters = append(c.counters, make([]*sim.Counter, int(ctr)+1-len(c.counters))...)
	}
	cnt := c.counters[ctr]
	if cnt == nil {
		cnt = sim.NewCounter(c.m.Sim)
		c.counters[ctr] = cnt
	}
	return cnt
}

// Wait schedules fn once counter ctr on this client reaches target. The
// successful-poll overhead is already charged at delivery time for local
// counters, so no additional cost applies: processing slices and HTIS units
// directly poll their local synchronization counters. Under a hard-fault
// plan the wait is guarded by the end-to-end watchdog (recovery.go).
func (c *Client) Wait(ctr packet.CounterID, target uint64, fn func()) {
	c.m.waitGuarded(c, ctr, target, 0, fn)
}

// WaitRemote schedules fn once counter ctr reaches target, charging the
// cross-ring polling penalty. This models a processing slice polling an
// accumulation memory's counters across the on-chip network, which the
// paper notes incurs much larger polling latencies.
func (c *Client) WaitRemote(ctr packet.CounterID, target uint64, fn func()) {
	c.m.waitGuarded(c, ctr, target, c.m.Model.AccumPoll, fn)
}

// armed brackets a counter wait with count-arm/count-fire lifecycle
// events when the machine has a recorder. The wrapping fires fn in
// exactly the same event slot, so recording never perturbs the schedule.
func (c *Client) armed(ctr packet.CounterID, target uint64, fn func()) func() {
	rec := c.m.Metrics
	if rec == nil {
		return fn
	}
	s := c.m.Sim
	rec.CountArm(c.Addr, ctr, target, s.Now())
	return func() {
		rec.CountFire(c.Addr, ctr, target, s.Now())
		fn()
	}
}

// Mem returns n words of the client's local memory starting at addr. The
// memory grows on demand; unwritten words read as zero.
func (c *Client) Mem(addr, n int) []float64 {
	c.ensure(addr + n)
	return c.mem[addr : addr+n]
}

// MemWords returns the number of local-memory words the client has
// allocated: one past the highest word written or read so far.
func (c *Client) MemWords() int { return len(c.mem) }

// FIFO returns the client's message FIFO (slices only).
func (c *Client) FIFO() *FIFO {
	if !c.Addr.Kind.IsSlice() {
		panic(fmt.Sprintf("machine: %v has no message FIFO", c.Addr))
	}
	return &c.fifo
}

// ensure extends the memory to at least n words. Growth is append's, so
// the backing array grows geometrically while the memory itself ends at
// the highest word addressed; layouts that carry payloads must therefore
// be dense (DESIGN §9.4).
func (c *Client) ensure(n int) {
	if n > len(c.mem) {
		c.mem = append(c.mem, make([]float64, n-len(c.mem))...)
	}
}

func (c *Client) storeWrite(pkt *packet.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	c.ensure(pkt.Addr + len(pkt.Payload))
	copy(c.mem[pkt.Addr:], pkt.Payload)
}

func (c *Client) storeAccumulate(pkt *packet.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	c.ensure(pkt.Addr + len(pkt.Payload))
	for i, v := range pkt.Payload {
		c.mem[pkt.Addr+i] += v
	}
}

// FIFO is the hardware-managed circular receive FIFO within a processing
// slice's local memory. The Tensilica core polls the tail pointer to
// determine when a new message has arrived; if the FIFO fills, backpressure
// is exerted into the network (modelled as delayed delivery), and software
// is responsible for polling and processing messages to avoid deadlock.
type FIFO struct {
	m       *Machine
	queue   []*packet.Packet
	blocked []*packet.Packet
	waiter  func(*packet.Packet)
	// delivered counts total messages accepted into the FIFO.
	delivered uint64
}

// Len returns the number of messages queued and not yet popped.
func (f *FIFO) Len() int { return len(f.queue) }

// Delivered returns the total number of messages accepted so far.
func (f *FIFO) Delivered() uint64 { return f.delivered }

// Blocked returns the number of messages currently stalled by
// backpressure.
func (f *FIFO) Blocked() int { return len(f.blocked) }

// Pop schedules fn with the next message, charging the software FIFO-poll
// overhead. If the FIFO is empty, fn fires when the next message arrives.
// Only one outstanding Pop is permitted: the FIFO has a single tail
// pointer and a single polling core.
func (f *FIFO) Pop(fn func(*packet.Packet)) {
	if f.waiter != nil {
		panic("machine: concurrent FIFO Pop")
	}
	if len(f.queue) > 0 {
		pkt := f.queue[0]
		f.queue = f.queue[1:]
		f.admitBlocked()
		f.m.Sim.After(f.m.Model.FIFOPoll, sim.Func(func() { fn(pkt) }))
		return
	}
	f.waiter = fn
}

func (f *FIFO) deliver(pkt *packet.Packet) {
	f.delivered++
	if f.waiter != nil {
		fn := f.waiter
		f.waiter = nil
		f.m.Sim.After(f.m.Model.FIFOPoll, sim.Func(func() { fn(pkt) }))
		return
	}
	if len(f.queue) >= f.m.Model.FIFOCapacity {
		// Backpressure: the message waits outside the FIFO until software
		// drains an entry.
		f.delivered--
		f.blocked = append(f.blocked, pkt)
		return
	}
	f.queue = append(f.queue, pkt)
}

func (f *FIFO) admitBlocked() {
	for len(f.blocked) > 0 && len(f.queue) < f.m.Model.FIFOCapacity {
		pkt := f.blocked[0]
		f.blocked = f.blocked[1:]
		f.delivered++
		f.queue = append(f.queue, pkt)
	}
}
