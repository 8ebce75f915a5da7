// Package machine assembles the event-driven model of an Anton machine: a
// three-dimensional torus of nodes, each containing four processing slices,
// a high-throughput interaction subsystem (HTIS), and two accumulation
// memories, all of which are network clients with local memories that
// directly accept write packets issued by other clients.
//
// The model reproduces, at packet granularity, the communication behaviour
// the paper measures: counted remote writes with synchronization counters,
// accumulation packets, hardware multicast via per-node lookup tables,
// the per-slice message FIFO with backpressure, selective in-order
// delivery, cut-through routing with per-hop latencies calibrated from
// Figure 6, and bandwidth contention on links, injection ports, and
// delivery ports.
package machine

import (
	"fmt"

	"anton/internal/fault"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Machine is a simulated Anton machine.
type Machine struct {
	Sim   *sim.Sim
	Torus topo.Torus
	Model noc.Model

	// nodes holds every node, with its links and multicast table, in one
	// block (DESIGN §9.5).
	nodes []Node

	// ordIssue and ordDst implement the software-controlled header flag
	// that selectively guarantees in-order delivery between fixed
	// source-destination pairs: flagged packets commit strictly in send
	// order per pair, whatever their sizes or routes. Tickets are drawn
	// per pair at send time (program order) and carried inside the
	// packet; ordDst holds each pair's destination-side commit ledger.
	ordIssue map[pairKey]uint64
	ordDst   map[pairKey]*ordDst
	// sendSeq numbers sends in the order their injections begin.
	sendSeq uint64
	// free holds the released packet-branch records (branch.go).
	free []*branch

	// OnDeliver, if non-nil, is invoked at the simulated instant a packet
	// becomes available to software at dst (after counter increment). The
	// destination is dst, not pkt.Dst: every delivery of a multicast packet
	// shares the sender's one *Packet.
	OnDeliver func(pkt *packet.Packet, dst packet.Client, at sim.Time)
	// OnSend, if non-nil, is invoked at the simulated instant a client's
	// injection of a packet begins.
	OnSend func(pkt *packet.Packet, at sim.Time)
	// OnLink, if non-nil, is invoked when a packet begins occupying node
	// n's outgoing link on port p for the given service time (fault
	// retries included), with the packet's wire bytes and the head-of-line
	// wait it found before start: the arguments of metrics.LinkTransfer.
	// Used by the logic-analyzer tracing of Figure 13 and by the analytic
	// step model's link counters.
	OnLink func(n topo.NodeID, p topo.Port, start sim.Time, service sim.Dur, wireBytes int, wait sim.Dur)

	// faults is the fault injector attached to the simulator, or nil.
	// A nil injector (and a zero-rate plan) adds exactly zero to every
	// latency, so the fault-free model is reproduced bit for bit.
	faults *fault.Injector

	// metrics is the lifecycle recorder attached to the simulator, or
	// nil. Recording is purely passive (append-only), so an attached
	// recorder never changes a simulation result.
	metrics *metrics.Recorder

	// Hard-failure survival state (recovery.go). All of it stays
	// nil/zero — and every hard-path branch false — unless the attached
	// plan permanently kills links or nodes, so plans without kills
	// reproduce the static model bit for bit.
	hard     bool
	wdog     sim.Dur
	rt       *topo.RouteTable
	linkKill map[topo.LinkID]sim.Time
	nodeKill map[topo.NodeID]sim.Time
	deficit  map[recKey]*recState
	rec      RecoveryStats

	stats Stats
}

type pairKey struct {
	src, dst packet.Client
}

// ordDst is the destination-side in-order ledger of one (src, dst) pair:
// a flagged packet carries the ticket drawn at send time, and its commit
// runs only after every earlier ticket on the pair has committed, never
// earlier than its own availability instant and never earlier than the
// previous commit on the pair.
type ordDst struct {
	committed uint64
	lastAt    sim.Time
	pending   map[uint64]ordPending
}

type ordPending struct {
	avail sim.Time
	h     sim.Handler
}

// ticket draws the next in-order ticket for (pkt.Src, dst). Tickets are
// issued at send-call time, so per-pair program order is preserved.
func (m *Machine) ticket(pkt *packet.Packet, dst packet.Client) uint64 {
	key := pairKey{pkt.Src, dst}
	t := m.ordIssue[key]
	m.ordIssue[key] = t + 1
	return t
}

// ticketOf returns the ticket pkt carries for destination dst.
func ticketOf(pkt *packet.Packet, dst packet.Client) uint64 {
	if pkt.Multicast == packet.NoMulticast {
		return pkt.Ticket
	}
	for i := range pkt.Tickets {
		if pkt.Tickets[i].Dst == dst {
			return pkt.Tickets[i].Ticket
		}
	}
	panic("machine: in-order packet without a ticket")
}

// commitInOrder schedules h no earlier than avail and no earlier than
// every previously sent in-order packet's commit on the same pair.
func (m *Machine) commitInOrder(pkt *packet.Packet, dst packet.Client, avail sim.Time, h sim.Handler) {
	key := pairKey{pkt.Src, dst}
	st, ok := m.ordDst[key]
	if !ok {
		st = &ordDst{pending: make(map[uint64]ordPending)}
		m.ordDst[key] = st
	}
	st.pending[ticketOf(pkt, dst)] = ordPending{avail: avail, h: h}
	for {
		p, ready := st.pending[st.committed]
		if !ready {
			return
		}
		delete(st.pending, st.committed)
		st.committed++
		at := p.avail
		if at < st.lastAt {
			at = st.lastAt
		}
		if now := m.Sim.Now(); at < now {
			at = now
		}
		st.lastAt = at
		m.Sim.At(at, p.h)
	}
}

// Node is one Anton ASIC: seven network clients, six torus link ports, and
// a multicast lookup table.
type Node struct {
	ID    topo.NodeID
	Coord topo.Coord

	m     *Machine
	links [6]sim.Resource
	nbr   [6]int32 // the neighbour's ID through each port, indexed like links
	mc    packet.McTable
	// clients holds the clients built so far; Node.client builds the
	// rest the first time something addresses them.
	clients [packet.NumClients]*Client
}

// New constructs a machine with the given torus dimensions and timing
// model. Its allocations do not grow with the node count: the nodes,
// their links and their multicast tables are one block, and a client is
// built only when something first addresses it. A node's links start as
// zero resources, free at time zero, so the build writes only each
// node's identity, its machine and its neighbours' IDs (DESIGN §9.5).
func New(s *sim.Sim, t topo.Torus, model noc.Model) *Machine {
	m := &Machine{
		Sim:      s,
		Torus:    t,
		Model:    model,
		faults:   fault.FromSim(s),
		metrics:  metrics.FromSim(s),
		ordIssue: make(map[pairKey]uint64),
		ordDst:   make(map[pairKey]*ordDst),
	}
	m.stats.perNode = make([]nodeStats, t.Nodes())
	m.nodes = make([]Node, t.Nodes())
	for id := range m.nodes {
		n := &m.nodes[id]
		n.ID, n.Coord, n.m = topo.NodeID(id), t.Coord(topo.NodeID(id)), m
		for p, nb := range t.Neighbors(n.Coord) {
			n.nbr[p] = int32(nb)
		}
	}
	if m.faults.HardFaults() {
		m.setupHardFaults()
	}
	return m
}

// client returns n's client of kind k, building it the first time
// anything addresses it. Every reader of Node.clients goes through here.
func (n *Node) client(k packet.ClientKind) *Client {
	c := n.clients[k]
	if c == nil {
		c = n.newClient(k)
	}
	return c
}

// Default512 constructs an 8x8x8 (512-node) machine with the paper's
// default timing model, the configuration most of the paper's measurements
// use.
func Default512(s *sim.Sim) *Machine {
	return New(s, topo.NewTorus(8, 8, 8), noc.DefaultModel())
}

// Node returns the node with the given ID.
func (m *Machine) Node(id topo.NodeID) *Node { return &m.nodes[id] }

// NodeAt returns the node at coordinate c (wrapped).
func (m *Machine) NodeAt(c topo.Coord) *Node { return &m.nodes[m.Torus.ID(c)] }

// Client returns the client state addressed by c, building it if nothing
// has addressed it before.
func (m *Machine) Client(c packet.Client) *Client {
	return m.nodes[c.Node].client(c.Kind)
}

// Stats returns a snapshot of the machine's traffic statistics. Counts
// are kept per node and the machine-wide totals are derived by summation.
func (m *Machine) Stats() Stats {
	st := Stats{perNode: append([]nodeStats(nil), m.stats.perNode...)}
	for i := range st.perNode {
		ns := &st.perNode[i]
		st.Sent += ns.Sent
		st.Received += ns.Received
		st.SentBytes += ns.SentBytes
		st.RecvBytes += ns.RecvBytes
	}
	return st
}

// Faults returns the fault injector driving this machine, or nil.
func (m *Machine) Faults() *fault.Injector { return m.faults }

// Metrics returns the lifecycle recorder observing this machine, or nil.
func (m *Machine) Metrics() *metrics.Recorder { return m.metrics }

// nextStart predicts the service-start time Sim.Acquire will use
// for the next acquisition of r: the fault layer needs it to decide
// whether a traversal falls inside a scheduled link outage.
func (m *Machine) nextStart(r *sim.Resource) sim.Time {
	return max(r.FreeAt(), m.Sim.Now())
}

// ResetStats zeroes the traffic statistics (link busy-time accumulators in
// the resources are not reset).
func (m *Machine) ResetStats() { m.stats.reset() }

// SetMulticast installs multicast pattern id in node n's lookup table.
// Patterns must be installed on every node a multicast packet can visit;
// Lookup misses panic, as they indicate a software configuration bug.
func (m *Machine) SetMulticast(n topo.NodeID, id packet.MulticastID, e packet.McEntry) {
	m.nodes[n].mc.Set(id, e)
}

// LinkBusy returns the accumulated busy time of node n's outgoing link on
// port p.
func (m *Machine) LinkBusy(n topo.NodeID, p topo.Port) sim.Dur {
	return m.nodes[n].links[topo.PortIndex(p)].BusyTime()
}

// send is the injection path shared by the Client send helpers.
func (m *Machine) send(src *Client, pkt *packet.Packet) {
	if err := pkt.Validate(); err != nil {
		panic(fmt.Sprintf("machine: %v", err))
	}
	pkt.Src = src.Addr
	if pkt.InOrder {
		// Issue per-destination tickets in program order and carry them in
		// the packet; multicast destinations are resolved by walking the
		// installed tables (deterministic BFS order).
		if pkt.Multicast != packet.NoMulticast {
			dsts := m.resolveMulticast(src.Addr.Node, pkt.Multicast)
			pkt.Tickets = make([]packet.DstTicket, len(dsts))
			for i, dst := range dsts {
				pkt.Tickets[i] = packet.DstTicket{Dst: dst, Ticket: m.ticket(pkt, dst)}
			}
		} else {
			pkt.Ticket = m.ticket(pkt, pkt.Dst)
		}
	}
	model := &m.Model
	gap := model.SendGap(src.Addr.Kind)
	lat := model.SendLatency(src.Addr.Kind)
	// Clock-skewed (slow) nodes pay proportionally more to assemble and
	// inject a packet.
	lat += m.faults.NodeSlowExtra(int(src.Addr.Node), lat)
	b := m.newBranch(pkt)
	b.st, b.node, b.dur = stInject, &m.nodes[src.Addr.Node], lat
	m.Sim.Acquire(&src.send, gap, b)
}

// inject runs when the source's injection port begins serving b's
// packet: the packet is numbered and enters the network.
func (m *Machine) inject(b *branch) {
	pkt, node := b.pkt, b.node
	start := m.Sim.Now()
	if m.hard && m.nodeDeadNow(node.ID) {
		// A dead node's software halts: nothing reaches the wire, and
		// every delivery this injection would have made becomes a
		// permanent counter deficit at its destinations.
		m.release(b)
		m.loseSend(pkt, pkt.Src)
		return
	}
	m.sendSeq++
	pkt.Seq = m.sendSeq
	if m.OnSend != nil {
		m.OnSend(pkt, start)
	}
	m.stats.send(node.ID, pkt.WireBytes())
	inject := start.Add(b.dur)
	if m.metrics != nil {
		m.metrics.PacketSend(pkt.Seq, pkt.Src, start, inject)
	}
	switch {
	case pkt.Multicast != packet.NoMulticast:
		m.fanOut(b, node, inject, true)
	case pkt.Dst.Node == node.ID:
		// Node-local delivery travels the on-chip ring only.
		m.deliverLocal(b, node.client(pkt.Dst.Kind), inject.Add(m.Model.LocalRing))
	case m.hard:
		m.release(b)
		m.forwardHard(pkt, node, inject, true)
	default:
		port, _ := m.Torus.RoutePort(node.Coord, m.nodes[pkt.Dst.Node].Coord)
		m.hop(b, node, port, inject.Add(m.Model.SrcRing))
	}
}

// hop schedules b's header at node's egress toward port: head is the
// time it reaches the egress side of node's on-chip network.
func (m *Machine) hop(b *branch, node *Node, port topo.Port, head sim.Time) {
	b.st, b.node, b.port, b.head = stDepart, node, uint8(topo.PortIndex(port)), head
	m.Sim.At(head, b)
}

// depart runs when b's header reaches the egress: the packet queues for
// the link.
func (m *Machine) depart(b *branch) {
	pkt, node, port := b.pkt, b.node, topo.Ports[b.port]
	if m.hard && pkt.Multicast != packet.NoMulticast {
		if next := topo.NodeID(node.nbr[b.port]); m.linkDeadNow(topo.LinkID{Node: node.ID, Port: port}) || m.nodeDeadNow(next) {
			// The branch is already known dead: fall back to unicast
			// copies over the recomputed routes for every destination
			// in the subtree, instead of losing them and paying a
			// watchdog round trip on every send.
			m.release(b)
			m.mcReroute(pkt, node, next, m.Sim.Now())
			return
		}
	}
	link := &node.links[b.port]
	service := m.Model.LinkService(pkt.WireBytes())
	// Fault layer: CRC-detected flit corruption repaired by link-level
	// retransmission, transient stalls, and scheduled outages all extend
	// both the link occupancy and the arrival.
	extra := m.faults.LinkExtra(int(node.ID), port, service, m.nextStart(link))
	if m.metrics != nil {
		m.metrics.HopDepart(pkt.Seq, node.ID, port, m.Sim.Now())
	}
	b.st, b.dur, b.extra = stCross, service, extra
	m.Sim.Acquire(link, service+extra, b)
}

// cross runs when the link begins carrying b's packet: the header
// reaches the neighbour, where the packet is delivered, fans out, or
// takes its next hop.
func (m *Machine) cross(b *branch) {
	pkt, node, port := b.pkt, b.node, topo.Ports[b.port]
	start := m.Sim.Now()
	occupancy := b.dur + b.extra
	arrival := start.Add(b.extra).Add(m.Model.AdapterPair[port.Dim])
	next := &m.nodes[node.nbr[b.port]]
	mc := pkt.Multicast != packet.NoMulticast
	if m.hard && mc {
		// A kill landing inside the occupancy, or the next node dying
		// before the header clears its adapter, destroys the subtree.
		if kt, ok := m.linkKillTime(topo.LinkID{Node: node.ID, Port: port}); ok && kt < start.Add(occupancy) {
			m.release(b)
			m.loseSubtree(pkt, next.ID)
			return
		}
		if kt, ok := m.nodeKillTime(next.ID); ok && kt <= arrival {
			m.release(b)
			m.loseSubtree(pkt, next.ID)
			return
		}
	}
	if m.OnLink != nil {
		m.OnLink(node.ID, port, start, occupancy, pkt.WireBytes(), start.Sub(b.head))
	}
	if m.metrics != nil {
		m.metrics.LinkTransfer(pkt.Seq, node.ID, port, start, occupancy, pkt.WireBytes(), start.Sub(b.head))
		m.metrics.HopArrive(pkt.Seq, next.ID, arrival)
	}
	switch {
	case mc:
		m.fanOut(b, next, arrival, false)
	case next.ID == pkt.Dst.Node:
		avail := arrival.Add(m.Model.ExtraSerialization(pkt.WireBytes()) + m.Model.DstRing)
		m.deliverLocal(b, next.client(pkt.Dst.Kind), avail)
	default:
		port, _ := m.Torus.RoutePort(next.Coord, m.nodes[pkt.Dst.Node].Coord)
		m.hop(b, next, port, arrival.Add(m.Model.Through[port.Dim]))
	}
}

// fanOut performs the per-node multicast table lookup and forks b's
// packet to local clients and outgoing links. atSource distinguishes the
// injecting node (ring traversal from the sending client) from transit
// nodes (ring traversal from the arriving link adapter). b is released
// first, so the first fork reuses it.
func (m *Machine) fanOut(b *branch, node *Node, base sim.Time, atSource bool) {
	pkt := b.pkt
	m.release(b)
	if m.hard && m.nodeDeadNow(node.ID) {
		// The fan-out node died under the packet: the whole remaining
		// subtree is lost in flight.
		m.loseSubtree(pkt, node.ID)
		return
	}
	entry, ok := node.mc.Lookup(pkt.Multicast)
	if !ok {
		panic(fmt.Sprintf("machine: multicast pattern %d not installed on node %d", pkt.Multicast, node.ID))
	}
	model := &m.Model
	for _, kind := range entry.Local {
		var avail sim.Time
		if atSource {
			avail = base.Add(model.LocalRing)
		} else {
			avail = base.Add(model.ExtraSerialization(pkt.WireBytes()) + model.DstRing)
		}
		// Every local delivery shares pkt; counters, stats and hooks
		// see the destination as the client it commits to.
		m.deliverLocal(m.newBranch(pkt), node.client(kind), avail)
	}
	for _, port := range entry.Out {
		var head sim.Time
		if atSource {
			head = base.Add(model.SrcRing)
		} else {
			head = base.Add(model.Through[port.Dim])
		}
		m.hop(m.newBranch(pkt), node, port, head)
	}
}

// deliverLocal schedules the final delivery of b's packet into client
// dst: at is when the packet reaches dst's delivery port.
func (m *Machine) deliverLocal(b *branch, dst *Client, at sim.Time) {
	b.st, b.dst = stReceive, dst
	m.Sim.At(at, b)
}

// receive runs when b's packet reaches its destination client: it
// queues for the delivery port.
func (m *Machine) receive(b *branch) {
	pkt, dst := b.pkt, b.dst
	if m.hard && m.nodeDeadNow(dst.Addr.Node) {
		m.release(b)
		m.losePacket(pkt, dst.Addr, lossDstDead)
		return
	}
	b.st = stAvail
	m.Sim.Acquire(&dst.recv, m.Model.ClientService(dst.Addr.Kind, pkt.WireBytes()), b)
}

// available runs when the delivery port begins serving b's packet: it
// commits once the delivery latency has passed, in its pair's ticket
// order when it is flagged in-order.
func (m *Machine) available(b *branch) {
	pkt, dst := b.pkt, b.dst
	start := m.Sim.Now()
	if m.metrics != nil {
		m.metrics.DeliverStart(pkt.Seq, dst.Addr, start)
	}
	lat := m.Model.DeliverLatency(dst.Addr.Kind)
	lat += m.faults.NodeSlowExtra(int(dst.Addr.Node), lat)
	avail := start.Add(lat)
	b.st = stCommit
	if pkt.InOrder {
		m.commitInOrder(pkt, dst.Addr, avail, b)
		return
	}
	m.Sim.At(avail, b)
}

// resolveMulticast walks the installed multicast tables from node n and
// returns every destination client pattern id reaches, in deterministic
// (BFS) order.
func (m *Machine) resolveMulticast(n topo.NodeID, id packet.MulticastID) []packet.Client {
	var out []packet.Client
	visited := map[topo.NodeID]bool{}
	queue := []topo.NodeID{n}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if visited[cur] {
			continue
		}
		visited[cur] = true
		entry, ok := m.nodes[cur].mc.Lookup(id)
		if !ok {
			panic(fmt.Sprintf("machine: multicast pattern %d not installed on node %d", id, cur))
		}
		for _, kind := range entry.Local {
			out = append(out, packet.Client{Node: cur, Kind: kind})
		}
		for _, port := range entry.Out {
			queue = append(queue, topo.NodeID(m.nodes[cur].nbr[topo.PortIndex(port)]))
		}
	}
	return out
}

// commit applies pkt's effect to dst at the current simulated time.
func (m *Machine) commit(pkt *packet.Packet, dst *Client) {
	switch pkt.Kind {
	case packet.Write:
		dst.storeWrite(pkt)
		dst.counter(pkt.Counter).Inc()
	case packet.Accumulate:
		if !dst.Addr.Kind.IsAccum() {
			panic(fmt.Sprintf("machine: accumulation packet delivered to %v", dst.Addr))
		}
		dst.storeAccumulate(pkt)
		dst.counter(pkt.Counter).Inc()
	case packet.Message:
		if !dst.Addr.Kind.IsSlice() {
			panic(fmt.Sprintf("machine: FIFO message delivered to %v", dst.Addr))
		}
		dst.fifo.deliver(pkt)
	}
	m.stats.recv(dst.Addr.Node, pkt.WireBytes())
	now := m.Sim.Now()
	if m.metrics != nil {
		m.metrics.Deliver(pkt.Seq, dst.Addr, now)
	}
	if m.OnDeliver != nil {
		m.OnDeliver(pkt, dst.Addr, now)
	}
}
