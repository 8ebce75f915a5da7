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

	nodes []*Node

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

	// OnDeliver, if non-nil, is invoked at the simulated instant a packet
	// becomes available to software at dst (after counter increment).
	OnDeliver func(pkt *packet.Packet, dst packet.Client, at sim.Time)
	// OnSend, if non-nil, is invoked at the simulated instant a client's
	// injection of a packet begins.
	OnSend func(pkt *packet.Packet, at sim.Time)
	// OnLink, if non-nil, is invoked when a packet begins occupying node
	// n's outgoing link on port p for the given service time. Used by the
	// logic-analyzer tracing of Figure 13.
	OnLink func(n topo.NodeID, p topo.Port, start sim.Time, service sim.Dur)

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
	fn    func()
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

// commitInOrder schedules fn no earlier than avail and no earlier than
// every previously sent in-order packet's commit on the same pair.
func (m *Machine) commitInOrder(pkt *packet.Packet, dst packet.Client, avail sim.Time, fn func()) {
	key := pairKey{pkt.Src, dst}
	st, ok := m.ordDst[key]
	if !ok {
		st = &ordDst{pending: make(map[uint64]ordPending)}
		m.ordDst[key] = st
	}
	st.pending[ticketOf(pkt, dst)] = ordPending{avail: avail, fn: fn}
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
		m.Sim.At(at, p.fn)
	}
}

// Node is one Anton ASIC: seven network clients, six torus link ports, and
// a multicast lookup table.
type Node struct {
	ID    topo.NodeID
	Coord topo.Coord

	m       *Machine
	links   [6]*sim.Resource
	mc      *packet.McTable
	clients [packet.NumClients]*Client
}

// New constructs a machine with the given torus dimensions and timing
// model.
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
	m.nodes = make([]*Node, t.Nodes())
	for id := range m.nodes {
		n := &Node{
			ID:    topo.NodeID(id),
			Coord: t.Coord(topo.NodeID(id)),
			m:     m,
			mc:    packet.NewMcTable(),
		}
		for p := range n.links {
			n.links[p] = sim.NewResource(s)
		}
		for k := packet.ClientKind(0); k < packet.NumClients; k++ {
			n.clients[k] = newClient(m, packet.Client{Node: n.ID, Kind: k})
		}
		m.nodes[id] = n
	}
	if m.faults.HardFaults() {
		m.setupHardFaults()
	}
	return m
}

// Default512 constructs an 8x8x8 (512-node) machine with the paper's
// default timing model, the configuration most of the paper's measurements
// use.
func Default512(s *sim.Sim) *Machine {
	return New(s, topo.NewTorus(8, 8, 8), noc.DefaultModel())
}

// Node returns the node with the given ID.
func (m *Machine) Node(id topo.NodeID) *Node { return m.nodes[id] }

// NodeAt returns the node at coordinate c (wrapped).
func (m *Machine) NodeAt(c topo.Coord) *Node { return m.nodes[m.Torus.ID(c)] }

// Client returns the client state addressed by c.
func (m *Machine) Client(c packet.Client) *Client {
	return m.nodes[c.Node].clients[c.Kind]
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

// nextStart predicts the service-start time Resource.Acquire will use
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
	src.send.Acquire(gap, func(start sim.Time) {
		if m.hard && m.nodeDeadNow(src.Addr.Node) {
			// A dead node's software halts: nothing reaches the wire, and
			// every delivery this injection would have made becomes a
			// permanent counter deficit at its destinations.
			m.loseSend(pkt, src.Addr)
			return
		}
		m.sendSeq++
		pkt.Seq = m.sendSeq
		if m.OnSend != nil {
			m.OnSend(pkt, start)
		}
		m.stats.send(src.Addr.Node, pkt.WireBytes())
		inject := start.Add(lat)
		if m.metrics != nil {
			m.metrics.PacketSend(pkt.Seq, src.Addr, start, inject)
		}
		node := m.nodes[src.Addr.Node]
		if pkt.Multicast != packet.NoMulticast {
			m.multicastAt(pkt, node, inject, true)
			return
		}
		if pkt.Dst.Node == src.Addr.Node {
			// Node-local delivery travels the on-chip ring only.
			m.deliverLocal(pkt, node.clients[pkt.Dst.Kind], inject.Add(model.LocalRing))
			return
		}
		if m.hard {
			m.forwardHard(pkt, node, inject, true)
			return
		}
		route := m.Torus.Route(node.Coord, m.Torus.Coord(pkt.Dst.Node))
		m.forward(pkt, node, route, 0, inject.Add(model.SrcRing))
	})
}

// forward transmits pkt across route[step:]; head is the time the packet
// header reaches the egress side of node's on-chip network for this hop.
func (m *Machine) forward(pkt *packet.Packet, node *Node, route []topo.Step, step int, head sim.Time) {
	model := &m.Model
	hop := route[step]
	link := node.links[topo.PortIndex(hop.Port)]
	m.Sim.At(head, func() {
		service := model.LinkService(pkt.WireBytes())
		// Fault layer: CRC-detected flit corruption repaired by
		// link-level retransmission, transient stalls, and scheduled
		// outages all extend both the link occupancy and the arrival.
		extra := m.faults.LinkExtra(int(node.ID), hop.Port, service, m.nextStart(link))
		if m.metrics != nil {
			m.metrics.HopDepart(pkt.Seq, node.ID, hop.Port, m.Sim.Now())
		}
		link.Acquire(service+extra, func(start sim.Time) {
			if m.OnLink != nil {
				m.OnLink(node.ID, hop.Port, start, service+extra)
			}
			if m.metrics != nil {
				m.metrics.LinkTransfer(pkt.Seq, node.ID, hop.Port, start, service+extra,
					pkt.WireBytes(), start.Sub(head))
			}
			arrival := start.Add(extra).Add(model.AdapterPair[hop.Port.Dim])
			next := m.nodes[m.Torus.ID(hop.To)]
			if m.metrics != nil {
				m.metrics.HopArrive(pkt.Seq, next.ID, arrival)
			}
			if step == len(route)-1 {
				avail := arrival.Add(model.ExtraSerialization(pkt.WireBytes()) + model.DstRing)
				m.deliverLocal(pkt, next.clients[pkt.Dst.Kind], avail)
				return
			}
			nextDim := route[step+1].Port.Dim
			m.forward(pkt, next, route, step+1, arrival.Add(model.Through[nextDim]))
		})
	})
}

// multicastAt performs the per-node multicast table lookup and fans the
// packet out to local clients and outgoing links. atSource distinguishes
// the injecting node (ring traversal from the sending client) from transit
// nodes (ring traversal from the arriving link adapter).
func (m *Machine) multicastAt(pkt *packet.Packet, node *Node, base sim.Time, atSource bool) {
	model := &m.Model
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
	for _, kind := range entry.Local {
		var avail sim.Time
		if atSource {
			avail = base.Add(model.LocalRing)
		} else {
			avail = base.Add(model.ExtraSerialization(pkt.WireBytes()) + model.DstRing)
		}
		// Each delivery is a distinct logical packet so that counters,
		// stats and hooks see per-destination events.
		cp := new(packet.Packet)
		*cp = *pkt
		cp.Dst = packet.Client{Node: node.ID, Kind: kind}
		m.deliverLocal(cp, node.clients[kind], avail)
	}
	for _, port := range entry.Out {
		var head sim.Time
		if atSource {
			head = base.Add(model.SrcRing)
		} else {
			head = base.Add(model.Through[port.Dim])
		}
		port := port
		link := node.links[topo.PortIndex(port)]
		m.Sim.At(head, func() {
			nextID := m.Torus.ID(m.Torus.Neighbor(node.Coord, port))
			if m.hard && (m.linkDeadNow(topo.LinkID{Node: node.ID, Port: port}) || m.nodeDeadNow(nextID)) {
				// The branch is already known dead: fall back to unicast
				// copies over the recomputed routes for every destination
				// in the subtree, instead of losing them and paying a
				// watchdog round trip on every send.
				m.mcReroute(pkt, node, nextID, m.Sim.Now())
				return
			}
			service := model.LinkService(pkt.WireBytes())
			extra := m.faults.LinkExtra(int(node.ID), port, service, m.nextStart(link))
			if m.metrics != nil {
				m.metrics.HopDepart(pkt.Seq, node.ID, port, m.Sim.Now())
			}
			link.Acquire(service+extra, func(start sim.Time) {
				arrival := start.Add(extra).Add(model.AdapterPair[port.Dim])
				next := m.nodes[m.Torus.ID(m.Torus.Neighbor(node.Coord, port))]
				if m.hard {
					if kt, ok := m.linkKillTime(topo.LinkID{Node: node.ID, Port: port}); ok && kt < start.Add(service+extra) {
						m.loseSubtree(pkt, next.ID)
						return
					}
					if kt, ok := m.nodeKillTime(next.ID); ok && kt <= arrival {
						m.loseSubtree(pkt, next.ID)
						return
					}
				}
				if m.OnLink != nil {
					m.OnLink(node.ID, port, start, service+extra)
				}
				if m.metrics != nil {
					m.metrics.LinkTransfer(pkt.Seq, node.ID, port, start, service+extra,
						pkt.WireBytes(), start.Sub(head))
					m.metrics.HopArrive(pkt.Seq, next.ID, arrival)
				}
				m.multicastAt(pkt, next, arrival, false)
			})
		})
	}
}

// deliverLocal schedules the final delivery of pkt into client dst: the
// receive-port occupancy, memory/FIFO update, counter increment, and the
// availability instant software observes.
func (m *Machine) deliverLocal(pkt *packet.Packet, dst *Client, at sim.Time) {
	model := &m.Model
	service := model.ClientService(dst.Addr.Kind, pkt.WireBytes())
	m.Sim.At(at, func() {
		if m.hard && m.nodeDeadNow(dst.Addr.Node) {
			m.losePacket(pkt, dst.Addr, lossDstDead)
			return
		}
		dst.recv.Acquire(service, func(start sim.Time) {
			if m.metrics != nil {
				m.metrics.DeliverStart(pkt.Seq, dst.Addr, start)
			}
			lat := model.DeliverLatency(dst.Addr.Kind)
			lat += m.faults.NodeSlowExtra(int(dst.Addr.Node), lat)
			avail := start.Add(lat)
			if pkt.InOrder {
				m.commitInOrder(pkt, dst.Addr, avail, func() { m.commit(pkt, dst) })
				return
			}
			m.Sim.At(avail, func() { m.commit(pkt, dst) })
		})
	})
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
			queue = append(queue, m.Torus.ID(m.Torus.Neighbor(m.nodes[cur].Coord, port)))
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
