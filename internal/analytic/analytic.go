// Package analytic is the closed-form fast-path tier of the simulator:
// it answers point-to-point latency, collective-completion, and MD
// step-time queries in microseconds of wall time instead of a full
// discrete-event run, for both the Anton machine model and the
// InfiniBand cluster baseline.
//
// Everything here is derived from the same calibrated constants the
// event-driven models use (internal/noc for Anton, internal/cluster for
// the LogGP baseline); there are no independent magic numbers. Network
// queries are exact: the per-hop router latency, wire latency, and
// serialization terms reproduce the event simulator to the picosecond,
// including deterministic head-of-line queueing in packet trains (the
// convoy recurrences below), because the underlying resources grant
// service in arrival order. The MD step-time model is exact in its
// derived compute and pipeline terms and carries a calibrated residual
// fitted against one reference DES step (see step.go); its error bound
// is documented there and enforced by the differential test battery.
//
// The design follows Graphite's analytical network model tier and
// Agarwal's "Limits on Interconnect Network Performance": a contention
// model layered over a contention-free hop/serialization sum, checked
// against the event-driven ground truth. The bit-determinism of the DES
// makes that check mechanical: FuzzAnalyticVsDES drives both tiers over
// random topologies, routes, payloads, and collective shapes and
// requires agreement within the stated bound.
package analytic

import (
	"fmt"

	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Anton answers closed-form queries about an Anton machine of the given
// torus under a noc timing model.
type Anton struct {
	Model noc.Model
	Torus topo.Torus
}

// NewAnton returns the analytic model of a machine with the default
// (paper-calibrated) noc timing on the given torus.
func NewAnton(t topo.Torus) *Anton {
	return &Anton{Model: noc.DefaultModel(), Torus: t}
}

// WireBytes returns the wire size of a packet carrying the given payload:
// payloads up to packet.InlineBytes ride inside the 32-byte header.
func WireBytes(payload int) int {
	if payload <= packet.InlineBytes {
		return packet.HeaderBytes
	}
	return packet.HeaderBytes + payload
}

// ValidatePayload rejects payload sizes the packet format cannot carry.
func ValidatePayload(payload int) error {
	if payload < 0 || payload > packet.MaxPayloadBytes {
		return fmt.Errorf("analytic: payload %d bytes outside [0,%d]", payload, packet.MaxPayloadBytes)
	}
	return nil
}

// PointToPoint returns the end-to-end latency of a single counted remote
// write between the given client kinds: injection, dimension-ordered
// route traversal, payload serialization, and delivery. Exact: equals
// the event simulator on an otherwise idle machine.
func (a *Anton) PointToPoint(src, dst topo.Coord, srcKind, dstKind packet.ClientKind, payload int) sim.Dur {
	hops := a.Torus.HopsByDim(src, dst)
	return a.Model.PathLatency(hops, srcKind, dstKind, WireBytes(payload))
}

// WriteLatency is PointToPoint for the paper's standard measurement: a
// counted remote write between the slice-0 clients of two nodes.
func (a *Anton) WriteLatency(src, dst topo.Coord, payload int) sim.Dur {
	return a.PointToPoint(src, dst, packet.Slice0, packet.Slice0, payload)
}

// DiameterCoord returns the coordinate at the torus diameter from the
// origin: the farthest minimal-route destination, half the ring size
// away in every dimension.
func (a *Anton) DiameterCoord() topo.Coord {
	return topo.C(a.Torus.DimX/2, a.Torus.DimY/2, a.Torus.DimZ/2)
}

// Diameter returns the worst-case point-to-point latency over all
// destinations: the latency to DiameterCoord. PathLatency is strictly
// increasing in per-dimension hop count, so the maximum is attained at
// the half-way point of every ring.
func (a *Anton) Diameter(payload int) sim.Dur {
	return a.WriteLatency(topo.C(0, 0, 0), a.DiameterCoord(), payload)
}

// Stream returns the completion time of a pipelined train of counted
// remote writes from one slice-0 client to another: the instant the last
// write has been delivered and counted. payloads lists the per-packet
// payload sizes in injection order.
//
// The train is paced by three resources, each granting in arrival
// order: the injection port (minimum inter-packet gap), every link of
// the dimension-ordered route (serialization-time occupancy — the
// bandwidth limit), and the destination's receive port. The convoy
// recurrence below reproduces the event simulator's head-of-line
// blocking exactly, in O(packets × hops) arithmetic.
func (a *Anton) Stream(src, dst topo.Coord, payloads []int) sim.Dur {
	m := &a.Model
	n := len(payloads)
	if n == 0 {
		return 0
	}
	route := a.Torus.Route(src, dst)
	gap := m.SendGap(packet.Slice0)
	sendLat := m.SendLatency(packet.Slice0)

	// linkFree[l] is the time link l of the route finishes its previous
	// packet; recvFree the same for the destination receive port.
	linkFree := make([]sim.Time, len(route))
	var recvFree sim.Time
	var last sim.Time
	for i, payload := range payloads {
		wire := WireBytes(payload)
		svc := m.LinkService(wire)
		start := sim.Time(0).Add(sim.Dur(i) * gap) // injection-port grant
		var avail sim.Time
		if len(route) == 0 {
			avail = start.Add(sendLat + m.LocalRing)
		} else {
			head := start.Add(sendLat + m.SrcRing)
			for l, hop := range route {
				s := head
				if linkFree[l] > s {
					s = linkFree[l]
				}
				linkFree[l] = s.Add(svc)
				arrival := s.Add(m.AdapterPair[hop.Port.Dim])
				if l == len(route)-1 {
					avail = arrival.Add(m.ExtraSerialization(wire) + m.DstRing)
				} else {
					head = arrival.Add(m.Through[route[l+1].Port.Dim])
				}
			}
		}
		rs := avail
		if recvFree > rs {
			rs = recvFree
		}
		recvFree = rs.Add(m.ClientService(packet.Slice0, wire))
		delivered := rs.Add(m.DeliverLatency(packet.Slice0))
		if delivered > last {
			last = delivered
		}
	}
	return last.Sub(0)
}

// Transfer returns the completion time of moving totalBytes from slice 0
// at src to slice 0 at dst split into count equal messages, each carried
// in as many maximum-payload packets as needed — the Anton side of the
// Figure 7 measurement.
func (a *Anton) Transfer(src, dst topo.Coord, totalBytes, count int) sim.Dur {
	per := totalBytes / count
	var payloads []int
	add := func(bytes int) {
		for bytes > 0 {
			chunk := bytes
			if chunk > packet.MaxPayloadBytes {
				chunk = packet.MaxPayloadBytes
			}
			payloads = append(payloads, chunk)
			bytes -= chunk
		}
	}
	for i := 0; i < count; i++ {
		bytes := per
		if i == count-1 {
			bytes = totalBytes - per*(count-1)
		}
		add(bytes)
	}
	return a.Stream(src, dst, payloads)
}
