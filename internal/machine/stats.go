package machine

import "anton/internal/topo"

// Stats aggregates machine-wide traffic counts. Received counts individual
// deliveries, so a multicast packet delivered to k clients counts k times
// on the receive side but once on the send side — this is why the paper's
// average node receives over 500 messages per time step while sending over
// 250.
//
// The live accumulator holds only the per-node counts; the machine-wide
// totals are filled in by Machine.Stats, which sums the nodes.
type Stats struct {
	Sent      uint64
	Received  uint64
	SentBytes uint64
	RecvBytes uint64
	perNode   []nodeStats
}

type nodeStats struct {
	Sent, Received       uint64
	SentBytes, RecvBytes uint64
}

func (s *Stats) reset() {
	s.Sent, s.Received, s.SentBytes, s.RecvBytes = 0, 0, 0, 0
	for i := range s.perNode {
		s.perNode[i] = nodeStats{}
	}
}

// ensureNodes grows the per-node slice; machine.New pre-sizes it to the
// torus, so growth only happens in direct unit-test use.
func (s *Stats) ensureNodes(n int) {
	if len(s.perNode) < n {
		grown := make([]nodeStats, n)
		copy(grown, s.perNode)
		s.perNode = grown
	}
}

func (s *Stats) send(n topo.NodeID, bytes int) {
	s.ensureNodes(int(n) + 1)
	ns := &s.perNode[n]
	ns.Sent++
	ns.SentBytes += uint64(bytes)
}

func (s *Stats) recv(n topo.NodeID, bytes int) {
	s.ensureNodes(int(n) + 1)
	ns := &s.perNode[n]
	ns.Received++
	ns.RecvBytes += uint64(bytes)
}

// NodeSent returns the number of packets node n injected.
func (s Stats) NodeSent(n topo.NodeID) uint64 {
	if int(n) >= len(s.perNode) {
		return 0
	}
	return s.perNode[n].Sent
}

// NodeReceived returns the number of packet deliveries at node n's clients.
func (s Stats) NodeReceived(n topo.NodeID) uint64 {
	if int(n) >= len(s.perNode) {
		return 0
	}
	return s.perNode[n].Received
}
