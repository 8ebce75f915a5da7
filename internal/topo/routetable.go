package topo

// Fault-aware routing. A RouteTable is the software-recomputed routing
// state of a torus with permanently failed (killed) links and nodes:
// per-destination next-hop tables built by breadth-first search over the
// surviving directed-link graph, so every surviving source-destination
// pair uses a minimal route *within the surviving graph* (dimension-order
// with misroute legs around the failures). On a fault-free torus the
// tables reproduce the static dimension-order Route exactly, including
// its positive tie-break at half-ring distances, because the lowest
// port index among distance-decreasing ports is chosen (Ports orders
// X+ X- Y+ Y- Z+ Z-).
//
// Deadlock safety is by virtual-channel layering (dateline-style): hops
// are assigned VC layers by LayerRoute against the total link order
// LinkOrder, incrementing the layer whenever the order does not
// strictly increase. The (link, layer) channel-dependency graph is then
// acyclic by construction — consecutive hops either ascend in link
// order on one layer or move to a higher layer, so (layer, order)
// strictly increases lexicographically along any route. Fault-free
// dimension-order routes use at most NumDims+1 layers (one dateline
// descent per dimension); detours add at most a few more. The DES does
// not model VC buffers explicitly — LayerRoute exists so tests can
// verify every recomputed table admits a cycle-free VC assignment with
// a small bounded layer count.

// LinkID names one directed torus link: the outgoing port of one node.
type LinkID struct {
	Node NodeID
	Port Port
}

// NextHop returns the static dimension-order next hop from a toward b:
// the first step of Route(a, b). ok is false when a == b.
func (t Torus) NextHop(a, b Coord) (Port, bool) {
	for d := X; d < NumDims; d++ {
		if delta := t.Delta(a, b, d); delta != 0 {
			dir := Direction(+1)
			if delta < 0 {
				dir = -1
			}
			return Port{Dim: d, Dir: dir}, true
		}
	}
	return Port{}, false
}

// RouteTable holds per-destination next-hop tables over the surviving
// graph of a torus with killed links and nodes.
type RouteTable struct {
	t        Torus
	deadLink map[LinkID]bool
	deadNode map[NodeID]bool
	// next[dst][node] is the PortIndex of the next hop from node toward
	// dst, or -1 (self, dead, or unreachable).
	next [][]int8
}

// NewRouteTable computes the routing tables of t with the given dead
// links and nodes removed. A dead node implicitly removes all twelve
// directed links touching it. Construction is deterministic: the same
// dead sets produce byte-identical tables regardless of slice order.
func NewRouteTable(t Torus, deadLinks []LinkID, deadNodes []NodeID) *RouteTable {
	rt := &RouteTable{
		t:        t,
		deadLink: make(map[LinkID]bool, len(deadLinks)),
		deadNode: make(map[NodeID]bool, len(deadNodes)),
	}
	for _, l := range deadLinks {
		rt.deadLink[l] = true
	}
	for _, n := range deadNodes {
		rt.deadNode[n] = true
	}
	nodes := t.Nodes()
	rt.next = make([][]int8, nodes)
	coords := make([]Coord, nodes)
	for id := 0; id < nodes; id++ {
		coords[id] = t.Coord(NodeID(id))
	}
	dist := make([]int, nodes)
	queue := make([]NodeID, 0, nodes)
	for dst := 0; dst < nodes; dst++ {
		row := make([]int8, nodes)
		for i := range row {
			row[i] = -1
		}
		rt.next[dst] = row
		if rt.deadNode[NodeID(dst)] {
			continue
		}
		// Reverse BFS from dst over usable links gives every node's
		// surviving-graph distance to dst.
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], NodeID(dst))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			vc := coords[v]
			for _, p := range Ports {
				// u reaches v through the port opposite to p's direction
				// reversed: u = Neighbor(v, {dim,-dir}) has
				// Neighbor(u, {dim,+dir}) == v.
				u := t.ID(t.Neighbor(vc, Port{Dim: p.Dim, Dir: -p.Dir}))
				if u == v || dist[u] >= 0 || !rt.usable(u, p, v) {
					continue
				}
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
		// Next hop: the lowest-indexed usable port that decreases the
		// distance to dst. Port order (X+ X- Y+ Y- Z+ Z-) makes this
		// reproduce dimension-order routing when nothing is dead.
		for u := 0; u < nodes; u++ {
			if u == dst || dist[u] < 0 || rt.deadNode[NodeID(u)] {
				continue
			}
			uc := coords[u]
			for pi, p := range Ports {
				v := t.ID(t.Neighbor(uc, p))
				if int(v) == u || dist[v] < 0 || dist[v] != dist[u]-1 || !rt.usable(NodeID(u), p, v) {
					continue
				}
				row[u] = int8(pi)
				break
			}
		}
	}
	return rt
}

// usable reports whether the directed link from u through port p to v
// survives: neither endpoint node nor the link itself is dead.
func (rt *RouteTable) usable(u NodeID, p Port, v NodeID) bool {
	return !rt.deadLink[LinkID{Node: u, Port: p}] && !rt.deadNode[u] && !rt.deadNode[v]
}

// NextHop returns the outgoing port from node `from` toward dst. ok is
// false when from == dst, either endpoint is dead, or no surviving
// route exists.
func (rt *RouteTable) NextHop(from, dst NodeID) (Port, bool) {
	pi := rt.next[dst][from]
	if pi < 0 {
		return Port{}, false
	}
	return Ports[pi], true
}

// Route walks the next-hop tables from a to b and returns the full
// route. ok is false when no surviving route exists; a == b yields an
// empty route with ok true (unless a is dead).
func (rt *RouteTable) Route(a, b NodeID) ([]Step, bool) {
	if a == b {
		return nil, !rt.deadNode[a]
	}
	var steps []Step
	cur := a
	for cur != b {
		p, ok := rt.NextHop(cur, b)
		if !ok {
			return nil, false
		}
		from := rt.t.Coord(cur)
		to := rt.t.Neighbor(from, p)
		steps = append(steps, Step{From: from, To: to, Port: p})
		cur = rt.t.ID(to)
		if len(steps) > rt.t.Nodes() {
			panic("topo: route table cycle") // impossible: hops strictly decrease BFS distance
		}
	}
	return steps, true
}

// LinkOrder is the total order over directed links that the VC-layer
// construction uses: major key the (dimension, direction) class, then
// the ring the link belongs to, then the link's position along the ring
// *in its own direction of travel* — so a route that keeps moving in
// one direction ascends in order except at the single dateline wrap.
func (t Torus) LinkOrder(l LinkID) int {
	c := t.Coord(l.Node)
	d := l.Port.Dim
	size := t.Size(d)
	progress := c.Get(d)
	dirIdx := 0
	if l.Port.Dir < 0 {
		dirIdx = 1
		progress = size - 1 - progress
	}
	ring := int(t.ID(c.Set(d, 0)))
	return ((int(d)*2+dirIdx)*t.Nodes()+ring)*(size+1) + progress
}

// LayerRoute assigns a virtual-channel layer to each hop of route:
// layer 0 for the first hop, incrementing whenever LinkOrder does not
// strictly increase from one hop to the next. The returned slice has
// one entry per hop; an empty route yields nil.
func (t Torus) LayerRoute(route []Step) []int {
	if len(route) == 0 {
		return nil
	}
	layers := make([]int, len(route))
	layer, prev := 0, -1
	for i, st := range route {
		k := t.LinkOrder(LinkID{Node: t.ID(st.From), Port: st.Port})
		if i > 0 && k <= prev {
			layer++
		}
		layers[i] = layer
		prev = k
	}
	return layers
}
