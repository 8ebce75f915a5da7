package collective

import (
	"anton/internal/machine"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Broadcast is a machine-wide one-to-all broadcast built from the same
// ring-multicast primitive as the all-reduce: the root broadcasts along
// its X ring, every X-ring node rebroadcasts along its Y ring, and every
// node of that plane rebroadcasts along its Z ring. Three rounds reach
// all N^3 nodes with the minimum per-dimension hop count — the structure
// hardware tree networks (Blue Gene's) provide as a dedicated facility
// and Anton synthesizes from multicast counted remote writes.
type Broadcast struct {
	m   *machine.Machine
	cfg Config
	gen uint64
	// dimOff holds the ring-broadcast pattern bases, one per dimension.
	dimOff [topo.NumDims]packet.MulticastID
}

// NewBroadcast installs ring-broadcast patterns for all three dimensions,
// delivering to slice0. It consumes DimX+DimY+DimZ pattern ids at
// cfg.McBase.
func NewBroadcast(m *machine.Machine, cfg Config) *Broadcast {
	b := &Broadcast{m: m, cfg: cfg}
	id := cfg.McBase
	for d := topo.X; d < topo.NumDims; d++ {
		b.dimOff[d] = id
		id += packet.MulticastID(InstallRingBroadcast(m, d, packet.Slice0, id))
	}
	return b
}

// Run broadcasts payload from root to slice0 of every node; done fires
// when the last node has received it (the collective-completion metric
// the paper uses).
func (b *Broadcast) Run(root topo.NodeID, payload []float64, done func(at sim.Time)) {
	b.gen++
	m := b.m
	nodes := m.Torus.Nodes()
	remaining := nodes - 1
	if remaining == 0 {
		if done != nil {
			m.Sim.After(0, sim.Func(func() { done(m.Sim.Now()) }))
		}
		return
	}
	ctr := b.cfg.CtrBase + 7
	addr := int(b.gen) * max(b.cfg.Values, 1)
	recvd := func(n topo.NodeID) {
		m.Client(packet.Client{Node: n, Kind: packet.Slice0}).Wait(ctr, b.gen, func() {
			remaining--
			if remaining == 0 && done != nil {
				done(m.Sim.Now())
			}
		})
	}
	rootCoord := m.Torus.Coord(root)
	m.Torus.ForEach(func(c topo.Coord) {
		if id := m.Torus.ID(c); id != root {
			recvd(id)
		}
	})

	send := func(n topo.NodeID, d topo.Dim) {
		c := m.Torus.Coord(n)
		if m.Torus.Size(d) == 1 {
			return
		}
		m.Client(packet.Client{Node: n, Kind: packet.Slice0}).Send(&packet.Packet{
			Kind: packet.Write, Multicast: b.dimOff[d] + packet.MulticastID(c.Get(d)),
			Counter: ctr, Addr: addr, Bytes: b.cfg.Bytes, Payload: payload,
			Tag: "broadcast",
		})
	}

	// Round 1: root along X. Rounds 2 and 3 relay on reception; nodes in
	// the root's X ring forward along Y, nodes in the root's XY plane
	// forward along Z. A node knows its role from its coordinates alone,
	// so no extra coordination traffic is needed.
	send(root, topo.X)
	m.Torus.ForEach(func(c topo.Coord) {
		id := m.Torus.ID(c)
		switch {
		case id == root:
			// The root already has the value: relay along Y and Z at once.
			send(root, topo.Y)
			send(root, topo.Z)
		case c.Y == rootCoord.Y && c.Z == rootCoord.Z:
			// X-ring node: relay along Y, then Z, once the value arrives.
			m.Client(packet.Client{Node: id, Kind: packet.Slice0}).Wait(ctr, b.gen, func() {
				send(id, topo.Y)
				send(id, topo.Z)
			})
		case c.Z == rootCoord.Z:
			// XY-plane node: relay along Z once the value arrives.
			m.Client(packet.Client{Node: id, Kind: packet.Slice0}).Wait(ctr, b.gen, func() {
				send(id, topo.Z)
			})
		}
	})
}
