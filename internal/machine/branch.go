package machine

import (
	"anton/internal/packet"
	"anton/internal/sim"
)

// stage is what a branch record does when it next fires.
type stage uint8

const (
	stInject  stage = iota // injection port granted: the packet enters the network
	stRoute                // header on a node's ring under a kill plan: choose the egress
	stDepart               // header at a node's egress: queue for the link
	stCross                // link granted: cross to the neighbour
	stReceive              // packet at its destination client: queue for the delivery port
	stAvail                // delivery port granted: commit after the delivery latency
	stCommit               // the packet's effect lands in its destination
)

// branch is one in-flight branch of a packet: a unicast packet from
// injection to commit, under a kill plan as in a fault-free run, or one
// branch of a multicast packet (a link subtree up to its next fan-out,
// or one local delivery). It holds the operands of its next stage and
// is its own event handler, so moving a packet along allocates nothing
// and firing an event loads only the record.
//
// The record fits one 64-byte cache line, the first thing every event
// touches after sitting in a deep queue: the port is its index into
// topo.Ports, and dur holds whichever stage-specific duration the next
// stage reads.
//
// A record is scheduled at most once at a time; while an in-order commit
// waits in its pair's ledger the record is parked there instead. It
// returns to the machine's free list when its packet commits, is lost,
// or forks at a multicast node.
type branch struct {
	m    *Machine
	pkt  *packet.Packet
	node *Node   // stInject: the source node; stRoute, stDepart, stCross: the node the header is at
	dst  *Client // stReceive, stAvail, stCommit: the destination client

	head  sim.Time // stCross: when the header reached the egress
	dur   sim.Dur  // stInject: the injection latency; stCross: the link service time
	extra sim.Dur  // stCross: the fault layer's addition to the link occupancy

	st   stage
	port uint8 // stDepart, stCross: the outgoing port's index into topo.Ports
	src  bool  // stRoute: node is the packet's source, so the ring latency is SrcRing
}

// newBranch returns a record for pkt, from the free list when it has one.
// The free list grows to the peak number of branches in flight at once.
func (m *Machine) newBranch(pkt *packet.Packet) *branch {
	var b *branch
	if n := len(m.free); n > 0 {
		b = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		b = &branch{m: m}
	}
	b.pkt = pkt
	return b
}

// release returns b to the free list. The caller must not schedule b
// again and must have copied out any operand it still needs.
func (m *Machine) release(b *branch) {
	b.pkt, b.node, b.dst = nil, nil, nil
	m.free = append(m.free, b)
}

// Fire dispatches b's current stage.
func (b *branch) Fire() {
	m := b.m
	switch b.st {
	case stInject:
		m.inject(b)
	case stRoute:
		m.route(b)
	case stDepart:
		m.depart(b)
	case stCross:
		m.cross(b)
	case stReceive:
		m.receive(b)
	case stAvail:
		m.available(b)
	case stCommit:
		pkt, dst := b.pkt, b.dst
		m.release(b)
		m.commit(pkt, dst)
	}
}
