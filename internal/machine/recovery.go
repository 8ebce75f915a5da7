package machine

// Hard-failure survival: fault-aware rerouting, end-to-end watchdog
// recovery of synchronization counters, and degraded-mode completion.
//
// When the attached fault plan permanently kills links or nodes
// (fault.Plan.HardFaults), each unicast hop takes its egress from a
// topo.RouteTable recomputed at every kill instant (a "fault epoch")
// instead of the static dimension-ordered route, so surviving traffic
// detours around dead links with minimal routes in the surviving graph.
// The packet keeps its branch record: the route stage picks the egress
// on each node's ring. Packets caught by a kill — on a link that dies
// mid-transfer, addressed to a dead node, or injected by one — are
// recorded as lost instead of silently vanishing, and every
// synchronization-counter wait is guarded by an end-to-end watchdog: if
// the counter has not reached its target within the plan's watchdog
// deadline, the recovery path re-issues the known-lost counted writes
// over the detour routes, or — when the missing increments come from
// permanently dead sources — completes the wait in degraded mode by
// synthesizing them, so no injected hard failure can deadlock the
// discrete-event simulation.
//
// Everything here is gated on m.hard: a plan without kills takes none of
// these branches, schedules no extra events, and therefore reproduces
// the static dimension-order model bit for bit.

import (
	"fmt"
	"sort"

	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// lossReason classifies why a packet was destroyed by a hard fault.
type lossReason uint8

const (
	// lossLink: a killed link (or a node dying under a transit packet)
	// destroyed the packet in flight. Recoverable: the watchdog re-issues
	// the write from its still-living source over the detour routes.
	lossLink lossReason = iota
	// lossSrcDead: the source node died before injection; the write can
	// never be re-issued and its increment is permanently missing.
	lossSrcDead
	// lossDstDead: the destination node is dead; nothing can be
	// delivered there again.
	lossDstDead
	// lossUnreachable: no surviving route reaches the (living)
	// destination. Kills only accumulate, so this is permanent too.
	lossUnreachable
)

// recKey identifies one synchronization-counter deficit account: the
// destination client and counter a lost counted write would have
// incremented — exactly the pair a guarded wait observes.
type recKey struct {
	dst packet.Client
	ctr packet.CounterID
}

// recState is the cumulative loss ledger of one (client, counter) pair.
type recState struct {
	// lost holds recoverable lost writes awaiting re-issue.
	lost []*packet.Packet
	// dead counts increments that can never arrive (dead source or
	// destination); compensated counts how many of those a degraded
	// completion has already synthesized into the counter. Both are
	// cumulative, which makes the accounting correct for the cumulative
	// per-generation targets the collective and MD layers use.
	dead        uint64
	compensated uint64
}

// waitState tracks one watchdog-guarded counter wait. It is the handler
// of its own watchdog deadlines.
type waitState struct {
	c      *Client
	ctr    packet.CounterID
	target uint64
	done   bool
	checks int
}

// Fire runs the watchdog check at one of ws's deadlines.
func (ws *waitState) Fire() { ws.c.m.watchdogCheck(ws) }

// watchdogMaxChecks bounds consecutive watchdog deadlines on one wait;
// exceeding it means recovery cannot make progress, which is a modelling
// bug, not a survivable failure — so it panics with a diagnosis instead
// of spinning forever.
const watchdogMaxChecks = 1024

// RecoveryStats summarizes everything the hard-failure machinery did.
type RecoveryStats struct {
	Lost          uint64 // packets destroyed by hard faults
	LostMsgs      uint64 // of which uncounted FIFO messages (not recoverable)
	Reissues      uint64 // lost counted writes re-sent over detour routes
	Rerouted      uint64 // multicast branch copies delivered unicast around a dead branch
	WatchdogFires uint64 // watchdog deadlines that found an incomplete wait
	Degraded      uint64 // waits completed in degraded mode
	DegradedInc   uint64 // counter increments synthesized by degraded completions
	Epochs        uint64 // routing-table recomputations after time zero
}

// String renders the stats deterministically on one line.
func (r RecoveryStats) String() string {
	return fmt.Sprintf("lost=%d lostmsgs=%d reissues=%d rerouted=%d wdogfires=%d degraded=%d degradedinc=%d epochs=%d",
		r.Lost, r.LostMsgs, r.Reissues, r.Rerouted, r.WatchdogFires, r.Degraded, r.DegradedInc, r.Epochs)
}

// Recovery returns a snapshot of the hard-failure recovery statistics.
func (m *Machine) Recovery() RecoveryStats { return m.rec }

// setupHardFaults installs the hard-failure state: the kill schedules,
// the initial routing table, and one epoch event per distinct future
// kill instant. Called from New, so epoch events are scheduled before
// any workload event and win FIFO tie-breaks at equal timestamps. Kills
// naming nodes beyond this machine are ignored — one plan may drive
// ancillary simulators of many sizes; CLIs reject typos via
// Plan.ValidateTopo against their primary torus.
func (m *Machine) setupHardFaults() {
	m.hard = true
	m.wdog = m.faults.WatchdogDeadline()
	m.linkKill = make(map[topo.LinkID]sim.Time)
	m.nodeKill = make(map[topo.NodeID]sim.Time)
	m.deficit = make(map[recKey]*recState)
	nodes := m.Torus.Nodes()
	epochSet := make(map[sim.Time]bool)
	for _, k := range m.faults.LinkKills() {
		if k.Link.Node >= nodes {
			continue
		}
		l := topo.LinkID{Node: topo.NodeID(k.Link.Node), Port: k.Link.Port}
		if t, ok := m.linkKill[l]; !ok || k.At < t {
			m.linkKill[l] = k.At
		}
		epochSet[k.At] = true
	}
	for _, k := range m.faults.NodeKills() {
		if k.Node >= nodes {
			continue
		}
		n := topo.NodeID(k.Node)
		if t, ok := m.nodeKill[n]; !ok || k.At < t {
			m.nodeKill[n] = k.At
		}
		epochSet[k.At] = true
	}
	var epochs []sim.Time
	for t := range epochSet {
		if t > 0 {
			epochs = append(epochs, t)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	m.applyEpoch(0)
	for _, t := range epochs {
		t := t
		m.Sim.At(t, sim.Func(func() {
			m.rec.Epochs++
			m.applyEpoch(t)
		}))
	}
}

// applyEpoch recomputes the routing table over the links and nodes
// surviving at time now.
func (m *Machine) applyEpoch(now sim.Time) {
	var deadL []topo.LinkID
	for l, t := range m.linkKill {
		if t <= now {
			deadL = append(deadL, l)
		}
	}
	var deadN []topo.NodeID
	for n, t := range m.nodeKill {
		if t <= now {
			deadN = append(deadN, n)
		}
	}
	m.rt = topo.NewRouteTable(m.Torus, deadL, deadN)
}

func (m *Machine) nodeDeadNow(n topo.NodeID) bool {
	if !m.hard {
		return false
	}
	t, ok := m.nodeKill[n]
	return ok && t <= m.Sim.Now()
}

func (m *Machine) linkDeadNow(l topo.LinkID) bool {
	t, ok := m.linkKill[l]
	return ok && t <= m.Sim.Now()
}

func (m *Machine) recStateFor(key recKey) *recState {
	st, ok := m.deficit[key]
	if !ok {
		st = &recState{}
		m.deficit[key] = st
	}
	return st
}

// losePacket records the destruction of pkt on its way to dst: it
// consumes the in-order ticket (so later flagged packets on the pair do
// not stall forever behind the lost one), and books the missing counter
// increment into the deficit ledger — as a recoverable write when the
// source can re-issue it, as a permanent deficit otherwise.
func (m *Machine) losePacket(pkt *packet.Packet, dst packet.Client, reason lossReason) {
	now := m.Sim.Now()
	m.rec.Lost++
	m.Metrics.PacketLost(pkt.Seq, dst, int(reason), now)
	if pkt.InOrder {
		m.commitInOrder(pkt, dst, now, sim.Func(func() {}))
	}
	if pkt.Kind == packet.Message {
		// FIFO messages carry no counter: nothing can observe the loss
		// end-to-end, so it is only counted. Workloads drain FIFOs by
		// observed length, which keeps them deadlock-free regardless.
		m.rec.LostMsgs++
		return
	}
	if pkt.Counter == packet.NoCounter {
		return
	}
	st := m.recStateFor(recKey{dst, pkt.Counter})
	if reason == lossLink {
		cp := *pkt
		cp.Dst = dst
		cp.Multicast = packet.NoMulticast
		// A re-issued write cannot keep the in-order guarantee: its
		// ticket was already consumed and younger writes may have
		// committed. Recovery trades ordering for progress.
		cp.InOrder = false
		st.lost = append(st.lost, &cp)
	} else {
		st.dead++
	}
}

// loseSend records the loss of an entire injection from a dead source:
// each destination the packet would have reached books a permanent
// deficit.
func (m *Machine) loseSend(pkt *packet.Packet, src packet.Client) {
	if pkt.Multicast != packet.NoMulticast {
		for _, dst := range m.resolveMulticast(src.Node, pkt.Multicast) {
			cp := *pkt
			cp.Dst = dst
			m.losePacket(&cp, dst, lossSrcDead)
		}
		return
	}
	m.losePacket(pkt, pkt.Dst, lossSrcDead)
}

// loseSubtree records the loss of every delivery a multicast packet
// would have made from node `from` downward, after the branch feeding
// the subtree was destroyed mid-transfer.
func (m *Machine) loseSubtree(pkt *packet.Packet, from topo.NodeID) {
	for _, dst := range m.resolveMulticast(from, pkt.Multicast) {
		cp := *pkt
		cp.Dst = dst
		reason := lossLink
		if m.nodeDeadNow(dst.Node) {
			reason = lossDstDead
		}
		m.losePacket(&cp, dst, reason)
	}
}

// mcReroute is the unicast fallback for a multicast tree branch that is
// already dead at fan-out time: every destination in the unreachable
// subtree gets its own copy routed over the recomputed tables. A static
// multicast pattern with a killed branch therefore keeps delivering on
// every send instead of tripping the watchdog each timestep.
func (m *Machine) mcReroute(pkt *packet.Packet, node *Node, subtree topo.NodeID, at sim.Time) {
	for _, dst := range m.resolveMulticast(subtree, pkt.Multicast) {
		cp := new(packet.Packet)
		*cp = *pkt
		cp.Dst = dst
		cp.Multicast = packet.NoMulticast
		if cp.InOrder {
			// The unicast copy loses the multicast ticket table with the
			// pattern id, so the per-destination ticket must move into the
			// unicast slot or the pair's in-order ledger stalls forever on
			// the ticket this delivery was issued.
			cp.Ticket = ticketOf(pkt, dst)
			cp.Tickets = nil
		}
		if m.nodeDeadNow(dst.Node) {
			m.losePacket(cp, dst, lossDstDead)
			continue
		}
		m.rec.Rerouted++
		if dst.Node == node.ID {
			m.deliverLocal(m.newBranch(cp), node.client(dst.Kind), at.Add(m.Model.LocalRing))
			continue
		}
		m.steer(m.newBranch(cp), node, at, false)
	}
}

// steer schedules b's unicast header on node's on-chip ring at `at`,
// where the route stage picks its egress from the fault-epoch routing
// table. src marks the packet's source node, whose ring latency to the
// egress is SrcRing rather than the transit Through.
func (m *Machine) steer(b *branch, node *Node, at sim.Time, src bool) {
	b.st, b.node, b.src = stRoute, node, src
	m.Sim.At(at, b)
}

// route runs when b's header is on a node's ring under a kill plan: the
// packet takes the current epoch's next hop toward its destination, or
// is lost to a dead node, a dead destination or a missing route.
func (m *Machine) route(b *branch) {
	pkt, node := b.pkt, b.node
	var port topo.Port
	ok, reason := false, lossLink
	switch {
	case m.nodeDeadNow(node.ID):
		// The node died under a transiting packet.
	case m.nodeDeadNow(pkt.Dst.Node):
		reason = lossDstDead
	default:
		port, ok = m.rt.NextHop(node.ID, pkt.Dst.Node)
		reason = lossUnreachable
	}
	if !ok {
		m.release(b)
		m.losePacket(pkt, pkt.Dst, reason)
		return
	}
	ring := m.Model.Through[port.Dim]
	if b.src {
		ring = m.Model.SrcRing
	}
	m.hop(b, node, port, m.Sim.Now().Add(ring))
}

// waitGuarded registers a counter wait, adding the end-to-end watchdog
// when the plan injects hard faults. Without hard faults — or when the
// target is already met, which no failure can retract — the wait is
// exactly the pre-recovery registration.
func (m *Machine) waitGuarded(c *Client, ctr packet.CounterID, target uint64, poll sim.Dur, fn func()) {
	cnt := c.counter(ctr)
	if !m.hard || cnt.Value() >= target {
		cnt.Wait(target, poll, c.armed(ctr, target, fn))
		return
	}
	ws := &waitState{c: c, ctr: ctr, target: target}
	wrapped := c.armed(ctr, target, fn)
	cnt.Wait(target, poll, func() {
		if ws.done {
			return
		}
		ws.done = true
		wrapped()
	})
	m.Sim.After(m.wdog, ws)
}

// watchdogCheck runs at a guarded wait's deadline. A wait that fired in
// the meantime needs nothing. Otherwise recovery acts on what is known:
// re-issue recoverable lost writes (then grant them a fresh deadline),
// complete degraded when permanent deficits explain the whole shortfall,
// and otherwise keep waiting — packets that are merely late (detour
// stretch, congestion) must never be duplicated.
func (m *Machine) watchdogCheck(ws *waitState) {
	cnt := ws.c.counter(ws.ctr)
	if ws.done || cnt.Value() >= ws.target {
		return
	}
	ws.checks++
	if ws.checks > watchdogMaxChecks {
		panic(fmt.Sprintf("machine: watchdog stuck on %v ctr %d: value %d never explained toward target %d after %d deadlines",
			ws.c.Addr, ws.ctr, cnt.Value(), ws.target, ws.checks))
	}
	m.rec.WatchdogFires++
	m.Metrics.WatchdogFire(ws.c.Addr, ws.ctr, ws.target, m.Sim.Now())
	key := recKey{ws.c.Addr, ws.ctr}
	st := m.deficit[key]
	if m.nodeDeadNow(ws.c.Addr.Node) {
		// The waiter itself is dead. Its continuation still runs (in
		// degraded mode) because workload control flow chains across
		// nodes; stalling it would deadlock the living ones.
		m.completeDegraded(ws, st)
		return
	}
	if st != nil && len(st.lost) > 0 {
		lost := st.lost
		st.lost = nil
		for _, cp := range lost {
			if m.nodeDeadNow(cp.Src.Node) {
				// The source died after the loss: no longer re-issuable.
				st.dead++
				continue
			}
			m.rec.Reissues++
			m.Metrics.Reissue(cp.Seq, cp.Dst, cp.Counter, m.Sim.Now())
			re := new(packet.Packet)
			*re = *cp
			m.send(m.Client(cp.Src), re)
		}
		m.Sim.After(m.wdog, ws)
		return
	}
	if st != nil && st.dead > st.compensated &&
		cnt.Value()+(st.dead-st.compensated) >= ws.target {
		m.completeDegraded(ws, st)
		return
	}
	m.Sim.After(m.wdog, ws)
}

// completeDegraded finishes a wait whose missing increments come from
// permanently dead sources: the deficit is synthesized into the counter,
// which fires the registered wait through its normal path. The workload
// proceeds on a partial reduction; RecoveryStats and the Degraded
// lifecycle event report exactly how many contributions were missing.
func (m *Machine) completeDegraded(ws *waitState, st *recState) {
	cnt := ws.c.counter(ws.ctr)
	value := cnt.Value()
	if value >= ws.target {
		return
	}
	add := ws.target - value
	if st != nil {
		comp := add
		if avail := st.dead - st.compensated; avail < comp {
			comp = avail
		}
		st.compensated += comp
	}
	m.rec.Degraded++
	m.rec.DegradedInc += add
	m.Metrics.Degraded(ws.c.Addr, ws.ctr, add, m.Sim.Now())
	cnt.Add(add)
}
