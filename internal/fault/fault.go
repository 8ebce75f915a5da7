// Package fault is the deterministic fault-injection layer for the
// communication models. The paper's 162 ns end-to-end path assumes
// lossless links: flits are CRC-checked at every hop and corrupted
// transfers are repaired by link-level retransmission, and the
// InfiniBand comparison platform recovers lost packets with
// sender-side timeouts. This package perturbs the perfect network the
// discrete-event models otherwise simulate, so experiments can
// quantify how Anton's latency advantage degrades under error
// recovery.
//
// An Injector is attached to a *sim.Sim (Attach) and consulted by the
// event-driven models built on that simulator:
//
//   - Torus links (package machine): per-traversal flit corruption,
//     detected by CRC at the receiving link adapter and repaired by
//     retransmitting the packet over the same link after a configurable
//     retry turnaround; transient link stalls; and scheduled outage
//     windows (a dead-then-recovered link) during which traversals wait
//     for recovery before the retransmission succeeds.
//   - The InfiniBand cluster (package cluster): whole-message drops
//     repaired by a sender timeout and retransmission.
//   - Nodes (package machine): optional clock skew, modelled as a
//     service-time multiplier on packet injection and delivery at a
//     seed-chosen subset of nodes.
//
// Determinism contract: every decision is a pure function of
// (plan seed, fault stream, per-stream draw index). Streams are keyed
// by fault kind and fault site (link, node, or rank), and the draw
// index advances in simulated-event order, which the DES kernel makes
// deterministic (FIFO tie-break on equal timestamps). Host parallelism
// never shares an Injector: each simulator instance owns its own, so a
// fixed (seed, plan, workers) tuple reproduces identical fault sites,
// retry counts, and reports at any worker count. A zero-rate plan draws
// nothing and adds zero to every latency, reproducing the fault-free
// models bit for bit.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"anton/internal/sim"
	"anton/internal/topo"
)

// Link names one directed torus link: the outgoing port of one node.
type Link struct {
	Node int
	Port topo.Port
}

func (l Link) String() string { return fmt.Sprintf("%d:%v", l.Node, l.Port) }

// Window is a scheduled outage of one link: traversals that begin
// within [From, Until) wait for recovery and then pay one retry
// turnaround, modelling a dead-then-recovered link.
type Window struct {
	Link        Link
	From, Until sim.Time
}

// LinkKill is a permanent hard failure of one directed link at time At:
// unlike an outage Window the link never recovers, and the machine
// model responds by recomputing fault-aware routing tables rather than
// by link-level retransmission.
type LinkKill struct {
	Link Link
	At   sim.Time
}

// NodeKill is a permanent hard failure of a whole node at time At: all
// twelve directed links touching it go down, in-flight traffic to or
// through it is lost, and its clients neither send nor receive again.
type NodeKill struct {
	Node int
	At   sim.Time
}

// DefaultWatchdog is the end-to-end synchronization-counter watchdog
// deadline used when a plan kills links or nodes without setting
// Watchdog explicitly.
const DefaultWatchdog = 25 * sim.Us

// Plan is a complete, serializable description of the faults to inject.
// The zero value injects nothing. Plans are parsed from and formatted to
// the -faults flag syntax by ParsePlan and String (plan.go).
type Plan struct {
	// Seed selects the pseudo-random fault sequence. Two runs with the
	// same plan are bit-identical; changing only the seed moves the
	// fault sites.
	Seed uint64

	// CorruptRate is the per-link-traversal probability that a packet's
	// flits are corrupted in flight. Corruption is detected by the CRC
	// at the receiving link adapter and repaired by link-level
	// retransmission: each retry re-occupies the link for the packet's
	// full serialization time plus RetryLatency of turnaround.
	CorruptRate float64
	// RetryLatency is the link-level retry turnaround: the time between
	// the CRC failure and the retransmission entering the wire.
	RetryLatency sim.Dur

	// StallRate is the per-link-traversal probability of a transient
	// stall (e.g. a lane re-synchronization) adding StallDur before the
	// transfer begins.
	StallRate float64
	StallDur  sim.Dur

	// DropRate is the per-message probability that the cluster fabric
	// loses a message. The sender detects the loss after DropTimeout and
	// retransmits.
	DropRate    float64
	DropTimeout sim.Dur

	// SlowRate is the fraction of nodes (chosen by seed, stable for the
	// life of the plan) whose clocks are skewed slow; SlowFactor >= 1 is
	// the service-time multiplier applied to packet injection and
	// delivery on those nodes.
	SlowRate   float64
	SlowFactor float64

	// Links, when non-empty, restricts corruption and stall faults to
	// the named links; empty means every link is eligible. Outage
	// windows name their own link and are unaffected.
	Links []Link

	// Down lists scheduled link outages.
	Down []Window

	// KillLinks lists permanent link failures (hard faults).
	KillLinks []LinkKill
	// KillNodes lists permanent node failures (hard faults).
	KillNodes []NodeKill
	// Watchdog is the end-to-end synchronization-counter deadline: a
	// counter wait that has not fired within Watchdog triggers
	// deterministic recovery (re-issue of known-lost counted writes, or
	// a degraded-mode partial reduction). Zero selects DefaultWatchdog
	// when the plan kills anything; without kills it is inert.
	Watchdog sim.Dur
}

// IsZero reports whether the plan injects nothing (the seed alone does
// not make a plan non-zero).
func (p Plan) IsZero() bool {
	return p.CorruptRate == 0 && p.StallRate == 0 && p.DropRate == 0 &&
		p.SlowRate == 0 && len(p.Down) == 0 && !p.HardFaults()
}

// HardFaults reports whether the plan permanently kills any link or
// node.
func (p Plan) HardFaults() bool {
	return len(p.KillLinks) > 0 || len(p.KillNodes) > 0
}

// maxRetries caps consecutive retransmissions of one traversal (and
// consecutive drops of one message) so that a rate of 1.0 remains a
// terminating, if pathological, simulation.
const maxRetries = 64

// LinkCounts is the per-link fault tally.
type LinkCounts struct {
	Corrupts  uint64 // CRC-detected corruptions (= retransmissions)
	Stalls    uint64
	DownWaits uint64 // traversals that waited out an outage window
}

// Stats is a snapshot of everything the injector has done.
type Stats struct {
	Corrupts  uint64 // total link-level retransmissions
	Stalls    uint64 // total transient link stalls
	Drops     uint64 // total cluster messages lost (each forces a timeout)
	DownWaits uint64 // total traversals delayed by an outage window
	Links     map[Link]LinkCounts
}

// String renders the stats deterministically: totals first, then the
// per-link fault sites sorted by node and port.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "corrupts=%d stalls=%d drops=%d downwaits=%d",
		st.Corrupts, st.Stalls, st.Drops, st.DownWaits)
	links := make([]Link, 0, len(st.Links))
	for l := range st.Links {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Node != links[j].Node {
			return links[i].Node < links[j].Node
		}
		return topo.PortIndex(links[i].Port) < topo.PortIndex(links[j].Port)
	})
	for _, l := range links {
		c := st.Links[l]
		fmt.Fprintf(&b, "\n  %v: corrupts=%d stalls=%d downwaits=%d",
			l, c.Corrupts, c.Stalls, c.DownWaits)
	}
	return b.String()
}

// Injector draws fault decisions for one simulator instance. All methods
// are nil-receiver safe: a nil *Injector injects nothing, so the models
// consult it unconditionally.
type Injector struct {
	plan Plan

	// Precomputed 53-bit Bernoulli thresholds (0 disables the fault
	// without drawing, keeping a zero-rate plan draw-free).
	corruptT, stallT, dropT, slowT uint64
	// slowPermille is the extra service time of a slow node in 1/1000
	// units, kept integral so fault arithmetic never touches floats.
	slowPermille int64

	// ctr is the per-stream draw index of the cluster drop streams and
	// links holds the link streams' indices and tallies, indexed by
	// linkSite(node, port) and grown on first use. Advancing the indices
	// in event order is what makes replays bit-identical.
	ctr   map[uint64]uint64
	links []linkSiteState
	drops uint64
}

// linkSiteState is one directed link's fault stream state.
type linkSiteState struct {
	link             Link
	corruptN, stallN uint64
	counts           LinkCounts
}

// NewInjector returns an injector for plan. Plans should be validated
// (ParsePlan does so); NewInjector clamps rather than rejects.
func NewInjector(p Plan) *Injector {
	in := &Injector{
		plan:     p,
		corruptT: threshold53(p.CorruptRate),
		stallT:   threshold53(p.StallRate),
		dropT:    threshold53(p.DropRate),
		ctr:      make(map[uint64]uint64),
	}
	if p.SlowRate > 0 && p.SlowFactor > 1 {
		in.slowT = threshold53(p.SlowRate)
		in.slowPermille = int64((p.SlowFactor-1)*1000 + 0.5)
	}
	return in
}

// Attach builds an injector for plan and installs it on s, where the
// machine and cluster constructors will find it.
func Attach(s *sim.Sim, p Plan) *Injector {
	in := NewInjector(p)
	s.Faults = in
	return in
}

// FromSim returns the injector attached to s, or nil.
func FromSim(s *sim.Sim) *Injector {
	in, _ := s.Faults.(*Injector)
	return in
}

// Plan returns the injector's plan (zero Plan for a nil injector).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// site returns the stream state of link l, growing the table on first use.
func (in *Injector) site(l Link) *linkSiteState {
	s := int(linkSite(l.Node, l.Port))
	if s >= len(in.links) {
		in.links = append(in.links, make([]linkSiteState, s+1-len(in.links))...)
	}
	ps := &in.links[s]
	ps.link = l
	return ps
}

// Stats returns a snapshot of the fault tallies. The per-link map holds
// every link that saw a fault, and the link totals are its sums.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	st := Stats{Drops: in.drops, Links: make(map[Link]LinkCounts)}
	for i := range in.links {
		ps := &in.links[i]
		if ps.counts == (LinkCounts{}) {
			continue
		}
		st.Links[ps.link] = ps.counts
		st.Corrupts += ps.counts.Corrupts
		st.Stalls += ps.counts.Stalls
		st.DownWaits += ps.counts.DownWaits
	}
	return st
}

// Fault stream kinds. The stream key packs (kind, site) so that every
// fault site has an independent deterministic sequence.
const (
	streamCorrupt uint64 = iota + 1
	streamStall
	streamDrop
	streamSlowSel
)

func streamKey(kind, site uint64) uint64 { return kind<<48 | site&(1<<48-1) }

// mix is a splitmix64-style avalanche of (seed, stream, index): the
// entire pseudo-random state of the fault layer.
func mix(seed, key, n uint64) uint64 {
	x := seed ^ (key * 0x9E3779B97F4A7C15) ^ (n * 0xD1342543DE82EF95)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// threshold53 maps a probability to a 53-bit comparison threshold;
// comparing hash>>11 against it is exact for rate 0 and 1.
func threshold53(r float64) uint64 {
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return 1 << 53
	}
	return uint64(r * (1 << 53))
}

// bern draws the next Bernoulli decision on stream (kind, site).
func (in *Injector) bern(kind, site, threshold uint64) bool {
	key := streamKey(kind, site)
	n := in.ctr[key]
	in.ctr[key] = n + 1
	return mix(in.plan.Seed, key, n)>>11 < threshold
}

// bernAt draws the Bernoulli decision at draw index *n on stream
// (kind, site) and advances the index. Identical to bern for the same
// index sequence; the caller owns the index storage (a link site).
func (in *Injector) bernAt(kind, site uint64, n *uint64, threshold uint64) bool {
	key := streamKey(kind, site)
	v := *n
	*n = v + 1
	return mix(in.plan.Seed, key, v)>>11 < threshold
}

func linkSite(node int, port topo.Port) uint64 {
	return uint64(node)*6 + uint64(topo.PortIndex(port))
}

func (in *Injector) linkEligible(l Link) bool {
	if len(in.plan.Links) == 0 {
		return true
	}
	for _, el := range in.plan.Links {
		if el == l {
			return true
		}
	}
	return false
}

// LinkExtra returns the extra time one traversal of the link (node,
// port) spends on faults: transient stalls, CRC-detected corruption
// repaired by retransmission (each retry costs RetryLatency plus the
// packet's full link serialization, service), and scheduled outages.
// start is the time service would begin; the caller adds the returned
// duration to both the link occupancy and the packet's arrival.
func (in *Injector) LinkExtra(node int, port topo.Port, service sim.Dur, start sim.Time) sim.Dur {
	if in == nil {
		return 0
	}
	l := Link{Node: node, Port: port}
	ps := in.site(l)
	var extra sim.Dur
	if (in.stallT > 0 || in.corruptT > 0) && in.linkEligible(l) {
		site := linkSite(node, port)
		if in.stallT > 0 && in.bernAt(streamStall, site, &ps.stallN, in.stallT) {
			extra += in.plan.StallDur
			ps.counts.Stalls++
		}
		if in.corruptT > 0 {
			retries := uint64(0)
			for retries < maxRetries && in.bernAt(streamCorrupt, site, &ps.corruptN, in.corruptT) {
				retries++
			}
			if retries > 0 {
				extra += sim.Dur(retries) * (in.plan.RetryLatency + service)
				ps.counts.Corrupts += retries
			}
		}
	}
	for _, w := range in.plan.Down {
		if w.Link == l && start >= w.From && start < w.Until {
			// The transfer fails until the link recovers; the
			// retransmission after recovery pays one retry turnaround.
			extra += w.Until.Sub(start) + in.plan.RetryLatency
			ps.counts.DownWaits++
		}
	}
	return extra
}

// NodeSlowExtra returns the extra service time a (possibly) clock-skewed
// node adds on top of base. Slow nodes are a stable seed-chosen subset.
func (in *Injector) NodeSlowExtra(node int, base sim.Dur) sim.Dur {
	if in == nil || in.slowT == 0 || in.slowPermille <= 0 {
		return 0
	}
	if mix(in.plan.Seed, streamKey(streamSlowSel, uint64(node)), 0)>>11 >= in.slowT {
		return 0
	}
	return base * sim.Dur(in.slowPermille) / 1000
}

// NodeSlow reports whether the plan skews node's clock.
func (in *Injector) NodeSlow(node int) bool {
	if in == nil || in.slowT == 0 {
		return false
	}
	return mix(in.plan.Seed, streamKey(streamSlowSel, uint64(node)), 0)>>11 < in.slowT
}

// Drop draws whether the cluster fabric loses rank's next message. The
// caller retransmits after DropTimeout; attempt caps the consecutive
// losses of one message at maxRetries so a rate of 1.0 terminates.
func (in *Injector) Drop(rank, attempt int) bool {
	if in == nil || in.dropT == 0 || attempt >= maxRetries {
		return false
	}
	if !in.bern(streamDrop, uint64(rank), in.dropT) {
		return false
	}
	in.drops++
	return true
}

// DropTimeout returns the sender retransmission timeout.
func (in *Injector) DropTimeout() sim.Dur {
	if in == nil {
		return 0
	}
	return in.plan.DropTimeout
}

// HardFaults reports whether the plan permanently kills any link or
// node. Models gate all hard-failure machinery on this so that plans
// without kills schedule nothing extra and stay bit-identical to the
// pre-recovery models.
func (in *Injector) HardFaults() bool {
	return in != nil && in.plan.HardFaults()
}

// LinkKills returns the plan's permanent link failures.
func (in *Injector) LinkKills() []LinkKill {
	if in == nil {
		return nil
	}
	return in.plan.KillLinks
}

// NodeKills returns the plan's permanent node failures.
func (in *Injector) NodeKills() []NodeKill {
	if in == nil {
		return nil
	}
	return in.plan.KillNodes
}

// NodeKilledAt reports whether node (or cluster rank) `node` is dead at
// time at: a kill applies from its At instant onward.
func (in *Injector) NodeKilledAt(node int, at sim.Time) bool {
	if in == nil {
		return false
	}
	for _, k := range in.plan.KillNodes {
		if k.Node == node && k.At <= at {
			return true
		}
	}
	return false
}

// FirstLinkKill returns the earliest kill time of any link leaving
// node. The cluster model reads a rank's link kills as the failure of
// its switch uplink.
func (in *Injector) FirstLinkKill(node int) (sim.Time, bool) {
	if in == nil {
		return 0, false
	}
	var first sim.Time
	found := false
	for _, k := range in.plan.KillLinks {
		if k.Link.Node == node && (!found || k.At < first) {
			first, found = k.At, true
		}
	}
	return first, found
}

// WatchdogDeadline returns the effective end-to-end counter-watchdog
// deadline: the plan's Watchdog, or DefaultWatchdog when unset.
func (in *Injector) WatchdogDeadline() sim.Dur {
	if in == nil || in.plan.Watchdog == 0 {
		return DefaultWatchdog
	}
	return in.plan.Watchdog
}
