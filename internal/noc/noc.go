// Package noc holds the calibrated timing model for Anton's on-chip
// six-router ring, link adapters, and inter-node torus links.
//
// The segment latencies come from the paper's own hardware breakdown
// (Figure 6): a write packet initiated in a processing slice takes 42 ns to
// reach the on-chip ring, 19 ns to traverse the ring to the outgoing link
// adapter, 20 ns through each link adapter (wire delay folded in), 25 ns
// from the arriving adapter to the destination client, and 36 ns for the
// local-memory write, synchronization-counter increment, and successful
// poll — 162 ns end to end for one X hop. Pass-through traffic costs 76 ns
// per X hop and 54 ns per Y or Z hop (Figure 5), because X-dimension
// traffic traverses more on-chip routers per node.
package noc

import (
	"fmt"

	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Model is the set of timing parameters for a node and its links. All
// values are sim.Dur (picoseconds). The zero value is not useful; start
// from DefaultModel.
type Model struct {
	// SliceSend is the latency from a processing slice's software issuing a
	// send instruction to the packet header entering the on-chip ring
	// (Fig. 6: 42 ns).
	SliceSend sim.Dur
	// HTISSend is the corresponding injection latency for the HTIS, whose
	// hardwired pipelines assemble packets without software involvement.
	HTISSend sim.Dur
	// SliceSendGap is the minimum spacing between consecutive packets
	// injected by one slice; hardware support for quickly assembling
	// packets makes this far smaller than SliceSend (which is a pipeline
	// latency, not an occupancy).
	SliceSendGap sim.Dur
	// HTISSendGap is the minimum spacing between consecutive HTIS packets.
	HTISSendGap sim.Dur
	// SrcRing is the on-chip ring traversal from the sending client to the
	// outgoing link adapter (Fig. 6: 19 ns, two router hops).
	SrcRing sim.Dur
	// LocalRing is the ring traversal for node-local deliveries (the
	// zero-hop case of Fig. 5).
	LocalRing sim.Dur
	// AdapterPair is the combined egress-adapter + passive-wire + ingress-
	// adapter latency of one link traversal, per dimension (Fig. 6: 20 ns
	// per adapter; wire delay up to 4/8/10 ns for X/Y/Z folded in).
	AdapterPair [topo.NumDims]sim.Dur
	// Through is the on-chip latency for pass-through traffic between the
	// arriving adapter and the next outgoing adapter, indexed by the
	// *outgoing* hop's dimension. Calibrated so a through X hop costs
	// 76 ns total and a through Y/Z hop 54 ns (Fig. 5).
	Through [topo.NumDims]sim.Dur
	// DstRing is the ring traversal from the arriving link adapter to the
	// destination client (Fig. 6: 25 ns, three router hops).
	DstRing sim.Dur
	// Deliver is the local-memory write + synchronization-counter update +
	// successful local poll at a slice or HTIS (Fig. 6: 36 ns).
	Deliver sim.Dur
	// AccumDeliver is the accumulation-memory update + counter increment.
	AccumDeliver sim.Dur
	// AccumPoll is the extra cost for a processing slice to poll an
	// accumulation memory's synchronization counter across the on-chip
	// network (the paper: "much larger" than local polling; this figure
	// motivates summing reductions in the slices rather than the
	// accumulation memories).
	AccumPoll sim.Dur
	// FIFOPoll is the software cost for a Tensilica core to poll the
	// message FIFO's tail pointer and begin processing one message.
	FIFOPoll sim.Dur
	// LinkPsPerByte is the inter-node link occupancy per wire byte.
	// Calibrated so a maximum-size packet (32 B header + 256 B payload)
	// sustains the paper's 36.8 Gbit/s effective data bandwidth.
	LinkPsPerByte sim.Dur
	// ClientPsPerByte is the delivery-port occupancy per wire byte at a
	// receiving client, derived from the 124.2 Gbit/s on-chip ring.
	ClientPsPerByte sim.Dur
	// HTISRecvPsPerByte is the faster delivery-port occupancy of the HTIS,
	// whose hardwired input buffers ingest the position stream from up to
	// 17 import sources at well above single-ring-station rate.
	HTISRecvPsPerByte sim.Dur
	// FIFOCapacity is the number of messages the hardware-managed receive
	// FIFO holds before exerting backpressure into the network.
	FIFOCapacity int
}

// DefaultModel returns the paper-calibrated timing model.
func DefaultModel() Model {
	return Model{
		SliceSend:    42 * sim.Ns,
		HTISSend:     20 * sim.Ns,
		SliceSendGap: 11 * sim.Ns,
		HTISSendGap:  4 * sim.Ns,
		SrcRing:      19 * sim.Ns,
		LocalRing:    26 * sim.Ns,
		AdapterPair: [topo.NumDims]sim.Dur{
			40 * sim.Ns, 40 * sim.Ns, 40 * sim.Ns,
		},
		Through: [topo.NumDims]sim.Dur{
			36 * sim.Ns, 14 * sim.Ns, 14 * sim.Ns,
		},
		DstRing:      25 * sim.Ns,
		Deliver:      36 * sim.Ns,
		AccumDeliver: 30 * sim.Ns,
		AccumPoll:    150 * sim.Ns,
		FIFOPoll:     60 * sim.Ns,
		// 288 wire bytes in 55.65 ns -> 256 payload bytes at 36.8 Gbit/s.
		LinkPsPerByte:     193,
		ClientPsPerByte:   64, // 124.2 Gbit/s ~ 15.5 B/ns
		HTISRecvPsPerByte: 32,
		FIFOCapacity:      128,
	}
}

// SendLatency returns the injection latency for a packet sent by client
// kind k. Accumulation memories cannot send packets.
func (m *Model) SendLatency(k packet.ClientKind) sim.Dur {
	switch {
	case k.IsSlice():
		return m.SliceSend
	case k == packet.HTIS:
		return m.HTISSend
	default:
		panic("noc: accumulation memories cannot send packets")
	}
}

// SendGap returns the minimum inter-packet injection spacing for client
// kind k.
func (m *Model) SendGap(k packet.ClientKind) sim.Dur {
	if k == packet.HTIS {
		return m.HTISSendGap
	}
	return m.SliceSendGap
}

// DeliverLatency returns the delivery (memory update + counter + poll)
// latency at a client of kind k.
func (m *Model) DeliverLatency(k packet.ClientKind) sim.Dur {
	if k.IsAccum() {
		return m.AccumDeliver
	}
	return m.Deliver
}

// ExtraSerialization returns the link serialization time beyond the
// header-sized minimum already folded into the adapter latencies. Zero-byte
// (header-only) packets pay nothing extra.
func (m *Model) ExtraSerialization(wireBytes int) sim.Dur {
	extra := wireBytes - packet.HeaderBytes
	if extra <= 0 {
		return 0
	}
	return sim.Dur(extra) * m.LinkPsPerByte
}

// LinkService returns the full link occupancy for a packet of the given
// wire size: this is what bounds sustained bandwidth.
func (m *Model) LinkService(wireBytes int) sim.Dur {
	return sim.Dur(wireBytes) * m.LinkPsPerByte
}

// ClientService returns the receive-port occupancy at a client of kind k
// for a packet of the given wire size.
func (m *Model) ClientService(k packet.ClientKind, wireBytes int) sim.Dur {
	if k == packet.HTIS {
		return sim.Dur(wireBytes) * m.HTISRecvPsPerByte
	}
	return sim.Dur(wireBytes) * m.ClientPsPerByte
}

// PathLatency computes the contention-free end-to-end latency of a single
// counted remote write between two clients, given the per-dimension hop
// counts of the dimension-ordered route. It is the closed-form counterpart
// of the event-driven model in package machine and is used to validate it.
//
// hops is the per-dimension hop count; src and dst are the endpoint client
// kinds; wireBytes is the packet's wire size.
func (m *Model) PathLatency(hops [topo.NumDims]int, src, dst packet.ClientKind, wireBytes int) sim.Dur {
	total := m.SendLatency(src)
	nhops := hops[0] + hops[1] + hops[2]
	if nhops == 0 {
		total += m.LocalRing
	} else {
		total += m.SrcRing
		first := true
		for d := topo.X; d < topo.NumDims; d++ {
			for i := 0; i < hops[d]; i++ {
				if !first {
					// Pass-through at an intermediate node, charged at the
					// outgoing hop's dimension.
					total += m.Through[d]
				}
				total += m.AdapterPair[d]
				first = false
			}
		}
		total += m.ExtraSerialization(wireBytes)
		total += m.DstRing
	}
	total += m.DeliverLatency(dst)
	return total
}

// HopIncrement returns the contention-free marginal latency of one
// additional pass-through hop in dimension d: 76 ns for X and 54 ns for Y/Z
// under the default model (Fig. 5's slopes).
func (m *Model) HopIncrement(d topo.Dim) sim.Dur {
	return m.Through[d] + m.AdapterPair[d]
}

// Stage is one named component of a contention-free end-to-end latency,
// as in the paper's Figure 6 breakdown. The labels match the stage labels
// the measured-lifecycle attribution (internal/metrics) derives from
// observed packet events, so the two can be compared stage by stage: this
// is the calibrated ground truth the observability layer cross-validates
// against.
type Stage struct {
	Label string
	Dur   sim.Dur
}

// Stages returns the contention-free stage-by-stage latency attribution
// of a single counted remote write: the closed-form counterpart of a
// measured metrics.Lifecycle.Stages(). The stage durations sum exactly to
// PathLatency(hops, src, dst, wireBytes).
func (m *Model) Stages(hops [topo.NumDims]int, src, dst packet.ClientKind, wireBytes int) []Stage {
	var out []Stage
	add := func(label string, d sim.Dur) { out = append(out, Stage{label, d}) }
	add("send initiation", m.SendLatency(src))
	nhops := hops[0] + hops[1] + hops[2]
	if nhops == 0 {
		add("local ring traversal", m.LocalRing)
	} else {
		add("source ring traversal", m.SrcRing)
		hop := 0
		for d := topo.X; d < topo.NumDims; d++ {
			for i := 0; i < hops[d]; i++ {
				hop++
				if hop > 1 {
					add(fmt.Sprintf("through node (%v hop %d)", d, hop), m.Through[d])
				}
				add(fmt.Sprintf("link adapters + wire (%v hop %d)", d, hop), m.AdapterPair[d])
			}
		}
		add("payload serialization + destination ring traversal",
			m.ExtraSerialization(wireBytes)+m.DstRing)
	}
	add("memory write + counter increment + successful poll", m.DeliverLatency(dst))
	return out
}
