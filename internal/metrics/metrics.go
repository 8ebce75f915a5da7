// Package metrics is the measured-latency observability layer: it records
// per-packet lifecycle events (injection, serialization, per-hop
// arrive/depart, delivery, synchronization-counter arm/fire) and per-link
// occupancy from the event-driven models, then derives measured
// counterparts of the paper's published numbers — the Figure 6 stage
// attribution, latency histograms with p50/p99/max, and per-link
// utilization — plus a chrome://tracing-compatible JSON export of any run.
//
// The recorder is attached to a simulator through sim.Sim.Metrics (the
// same narrow hook the fault layer uses), so the machine, cluster, and
// collective models pick it up without new constructor parameters and the
// fault and host-parallelism layers compose unchanged.
//
// Determinism contract: recording is purely passive. Every method only
// appends to buffers or bumps counters — none schedules simulator events,
// reads wall-clock time, or draws randomness — so a run with metrics
// enabled is bit-identical to the same run with metrics disabled, and the
// recorded stream for a fixed (plan, seed) is byte-identical at any host
// worker count (each simulator instance owns a private recorder; shards
// are merged in index order). All methods are safe on a nil *Recorder and
// cost one predicted branch, which is the disabled state.
package metrics

import (
	"sort"

	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// EventKind enumerates the per-packet lifecycle events.
type EventKind uint8

// The lifecycle event taxonomy. A unicast counted remote write emits, in
// simulated-time order: Inject, RingEnter, then per hop HopDepart,
// SerializeStart, SerializeEnd, HopArrive, then DeliverStart and Deliver.
// CountArm/CountFire bracket synchronization-counter waits. Cluster
// messages (the InfiniBand model) use their own send/deliver kinds and an
// independent sequence space.
const (
	EvInject         EventKind = iota // client begins assembling/injecting a packet
	EvRingEnter                       // packet header enters the on-chip ring
	EvHopDepart                       // header reaches the egress side of a node for one hop
	EvSerializeStart                  // link starts serializing the packet
	EvSerializeEnd                    // link occupancy ends (incl. fault retries)
	EvHopArrive                       // header exits the arriving link adapter at the next node
	EvDeliverStart                    // destination client's receive port begins service
	EvDeliver                         // memory/FIFO update + counter increment committed
	EvCountArm                        // a counter wait was registered
	EvCountFire                       // a counter wait's threshold was met and observed
	EvClusterSend                     // cluster rank issued a message
	EvClusterDeliver                  // cluster message landed in receiver software
	EvPacketLost                      // packet destroyed by a hard fault (killed link/node)
	EvWatchdogFire                    // counter watchdog deadline expired, recovery examined the wait
	EvReissue                         // lost counted write re-sent over the recomputed routes
	EvDegraded                        // wait completed in degraded mode with synthesized increments
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"inject", "ring-enter", "hop-depart", "serialize-start", "serialize-end",
	"hop-arrive", "deliver-start", "deliver", "count-arm", "count-fire",
	"cluster-send", "cluster-deliver",
	"packet-lost", "watchdog-fire", "reissue", "degraded",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "event(?)"
}

// Event is one recorded lifecycle event. Field meaning varies slightly by
// kind: Seq is the packet (or cluster-message) sequence number, except for
// counter events where it is the wait's target value; Aux carries the wire
// byte count for serialization events, the counter id for counter events,
// and the peer rank for cluster events.
type Event struct {
	At     sim.Time
	Seq    uint64
	Kind   EventKind
	Node   int32
	Port   int8 // dense port index (topo.PortIndex) or -1
	Client int8 // packet.ClientKind or -1
	Aux    int64
}

// LinkKey names one directed inter-node link: the outgoing port of a node.
type LinkKey struct {
	Node topo.NodeID
	Port int // dense index, see topo.PortIndex
}

// LinkCounters aggregates the traffic observed on one link.
type LinkCounters struct {
	Packets uint64  // packets serialized onto the link
	Bytes   uint64  // wire bytes serialized
	Busy    sim.Dur // accumulated occupancy (incl. fault retries)
	Queued  uint64  // packets that found the link busy and waited
	MaxWait sim.Dur // worst head-of-line wait observed
}

// Add counts one packet of wireBytes serialized onto the link for
// service (fault retries included) after a head-of-line wait. It is the
// one update of link counters: Recorder.LinkTransfer calls it, and so
// does any Machine.OnLink hook that keeps counters without a recorder.
func (lc *LinkCounters) Add(service sim.Dur, wireBytes int, wait sim.Dur) {
	lc.Packets++
	lc.Bytes += uint64(wireBytes)
	lc.Busy += service
	if wait > 0 {
		lc.Queued++
		if wait > lc.MaxWait {
			lc.MaxWait = wait
		}
	}
}

// Recorder accumulates lifecycle events, link counters, and labelled
// phase spans for one simulator instance. The zero value is ready; a nil
// recorder ignores every call.
type Recorder struct {
	events     []Event
	links      map[LinkKey]*LinkCounters
	spans      []PhaseSpan
	clusterSeq uint64
	armed      uint64
	fired      uint64
}

// PhaseSpan is a labelled machine-wide interval (e.g. one all-reduce
// round), recorded by the collective layer.
type PhaseSpan struct {
	Label      string
	Start, End sim.Time
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{links: make(map[LinkKey]*LinkCounters)} }

// Attach installs a fresh recorder on s, where the model constructors
// (machine.New, cluster.New, collective.NewAllReduce) will find it, and
// returns it.
func Attach(s *sim.Sim) *Recorder {
	r := New()
	s.Metrics = r
	return r
}

// FromSim returns the recorder attached to s, or nil.
func FromSim(s *sim.Sim) *Recorder {
	r, _ := s.Metrics.(*Recorder)
	return r
}

// Enabled reports whether r records anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) add(e Event) { r.events = append(r.events, e) }

// PacketSend records a client beginning injection of pkt at start; the
// header enters the on-chip ring at ringEnter (start plus the injection
// pipeline latency).
func (r *Recorder) PacketSend(seq uint64, src packet.Client, start, ringEnter sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: start, Seq: seq, Kind: EvInject, Node: int32(src.Node), Port: -1, Client: int8(src.Kind)})
	r.add(Event{At: ringEnter, Seq: seq, Kind: EvRingEnter, Node: int32(src.Node), Port: -1, Client: int8(src.Kind)})
}

// HopDepart records the packet header reaching the egress side of node's
// on-chip network for the hop leaving through port.
func (r *Recorder) HopDepart(seq uint64, node topo.NodeID, port topo.Port, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvHopDepart, Node: int32(node), Port: int8(topo.PortIndex(port)), Client: -1})
}

// LinkTransfer records one link traversal: serialization starts at start
// and occupies the link for service (fault retries included); wait is the
// head-of-line blocking the packet experienced before start.
func (r *Recorder) LinkTransfer(seq uint64, node topo.NodeID, port topo.Port, start sim.Time, service sim.Dur, wireBytes int, wait sim.Dur) {
	if r == nil {
		return
	}
	pi := topo.PortIndex(port)
	r.add(Event{At: start, Seq: seq, Kind: EvSerializeStart, Node: int32(node), Port: int8(pi), Client: -1, Aux: int64(wireBytes)})
	r.add(Event{At: start.Add(service), Seq: seq, Kind: EvSerializeEnd, Node: int32(node), Port: int8(pi), Client: -1, Aux: int64(wireBytes)})
	key := LinkKey{Node: node, Port: pi}
	lc := r.links[key]
	if lc == nil {
		lc = &LinkCounters{}
		r.links[key] = lc
	}
	lc.Add(service, wireBytes, wait)
}

// HopArrive records the packet header exiting the arriving link adapter at
// node.
func (r *Recorder) HopArrive(seq uint64, node topo.NodeID, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvHopArrive, Node: int32(node), Port: -1, Client: -1})
}

// DeliverStart records the destination client's receive port beginning
// service for the packet.
func (r *Recorder) DeliverStart(seq uint64, dst packet.Client, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvDeliverStart, Node: int32(dst.Node), Port: -1, Client: int8(dst.Kind)})
}

// Deliver records the commit instant: memory/FIFO updated, counter
// incremented, the packet observable by software at dst.
func (r *Recorder) Deliver(seq uint64, dst packet.Client, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvDeliver, Node: int32(dst.Node), Port: -1, Client: int8(dst.Kind)})
}

// CountArm records the registration of a counter wait (counter ctr on
// client c reaching target).
func (r *Recorder) CountArm(c packet.Client, ctr packet.CounterID, target uint64, at sim.Time) {
	if r == nil {
		return
	}
	r.armed++
	r.add(Event{At: at, Seq: target, Kind: EvCountArm, Node: int32(c.Node), Port: -1, Client: int8(c.Kind), Aux: int64(ctr)})
}

// CountFire records a counter wait's threshold being met and observed by
// the polling client.
func (r *Recorder) CountFire(c packet.Client, ctr packet.CounterID, target uint64, at sim.Time) {
	if r == nil {
		return
	}
	r.fired++
	r.add(Event{At: at, Seq: target, Kind: EvCountFire, Node: int32(c.Node), Port: -1, Client: int8(c.Kind), Aux: int64(ctr)})
}

// ClusterSend records a cluster rank issuing a message and returns the
// message's sequence number for the matching ClusterDeliver. Must only be
// called on a non-nil recorder (the caller skips the pair when disabled).
func (r *Recorder) ClusterSend(src, dst int, bytes int, at sim.Time) uint64 {
	r.clusterSeq++
	seq := r.clusterSeq
	r.add(Event{At: at, Seq: seq, Kind: EvClusterSend, Node: int32(src), Port: -1, Client: -1, Aux: int64(dst)})
	return seq
}

// ClusterDeliver records the message seq landing in rank dst's software.
func (r *Recorder) ClusterDeliver(seq uint64, dst int, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvClusterDeliver, Node: int32(dst), Port: -1, Client: -1})
}

// PacketLost records packet seq being destroyed by a hard fault on its
// way to dst; reason is the machine layer's loss-reason code.
func (r *Recorder) PacketLost(seq uint64, dst packet.Client, reason int, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvPacketLost, Node: int32(dst.Node), Port: -1, Client: int8(dst.Kind), Aux: int64(reason)})
}

// WatchdogFire records the end-to-end counter watchdog finding the wait
// (counter ctr on client c reaching target) still incomplete at its
// deadline and entering recovery.
func (r *Recorder) WatchdogFire(c packet.Client, ctr packet.CounterID, target uint64, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: target, Kind: EvWatchdogFire, Node: int32(c.Node), Port: -1, Client: int8(c.Kind), Aux: int64(ctr)})
}

// Reissue records the recovery path re-sending the lost counted write
// seq (its original sequence number) toward dst.
func (r *Recorder) Reissue(seq uint64, dst packet.Client, ctr packet.CounterID, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: seq, Kind: EvReissue, Node: int32(dst.Node), Port: -1, Client: int8(dst.Kind), Aux: int64(ctr)})
}

// Degraded records a wait on client c completing in degraded mode:
// missing increments from permanently dead sources were synthesized so
// the timestep could proceed.
func (r *Recorder) Degraded(c packet.Client, ctr packet.CounterID, missing uint64, at sim.Time) {
	if r == nil {
		return
	}
	r.add(Event{At: at, Seq: missing, Kind: EvDegraded, Node: int32(c.Node), Port: -1, Client: int8(c.Kind), Aux: int64(ctr)})
}

// Span records a labelled machine-wide phase interval.
func (r *Recorder) Span(label string, start, end sim.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, PhaseSpan{Label: label, Start: start, End: end})
}

// Events returns the recorded events sorted by timestamp (stable, so
// events recorded at the same instant keep their deterministic recording
// order).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Spans returns the recorded phase spans in recording order.
func (r *Recorder) Spans() []PhaseSpan {
	if r == nil {
		return nil
	}
	return append([]PhaseSpan(nil), r.spans...)
}

// CounterWaits returns the number of counter waits armed and fired.
func (r *Recorder) CounterWaits() (armed, fired uint64) {
	if r == nil {
		return 0, 0
	}
	return r.armed, r.fired
}

// Links returns the per-link counters keyed by (node, port), with keys
// sorted for deterministic iteration.
func (r *Recorder) Links() []LinkRecord {
	if r == nil {
		return nil
	}
	out := make([]LinkRecord, 0, len(r.links))
	for k, v := range r.links {
		out = append(out, LinkRecord{Key: k, LinkCounters: *v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Node != out[j].Key.Node {
			return out[i].Key.Node < out[j].Key.Node
		}
		return out[i].Key.Port < out[j].Key.Port
	})
	return out
}

// LinkRecord is one link's counters together with its identity.
type LinkRecord struct {
	Key LinkKey
	LinkCounters
}

// AntonLatencies returns the end-to-end (inject -> deliver) latency of
// every Anton packet delivery, in delivery order. Multicast packets
// contribute one sample per destination reached.
func (r *Recorder) AntonLatencies() []sim.Dur {
	return r.latencies(EvInject, EvDeliver)
}

// ClusterLatencies returns the software-to-software latency of every
// cluster message, in delivery order (timeout-and-retransmit recoveries
// included).
func (r *Recorder) ClusterLatencies() []sim.Dur {
	return r.latencies(EvClusterSend, EvClusterDeliver)
}

func (r *Recorder) latencies(send, deliver EventKind) []sim.Dur {
	if r == nil {
		return nil
	}
	starts := make(map[uint64]sim.Time)
	var out []sim.Dur
	for _, e := range r.Events() {
		switch e.Kind {
		case send:
			if _, ok := starts[e.Seq]; !ok {
				starts[e.Seq] = e.At
			}
		case deliver:
			if t0, ok := starts[e.Seq]; ok {
				out = append(out, e.At.Sub(t0))
			}
		}
	}
	return out
}
