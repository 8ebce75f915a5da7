// Package topo describes the three-dimensional torus topology that connects
// Anton nodes. Each node is identified by its Cartesian coordinates within
// the torus; packets are routed dimension order (X, then Y, then Z) along
// the shortest path in each dimension, matching the paper's description.
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Dim identifies one torus dimension.
type Dim int

// The three torus dimensions.
const (
	X Dim = iota
	Y
	Z
	NumDims = 3
)

func (d Dim) String() string {
	switch d {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Direction is a signed direction along a dimension: +1 or -1.
type Direction int

// Port identifies one of the six torus links of a node (a dimension and a
// direction), e.g. {X, +1} is the X+ link.
type Port struct {
	Dim Dim
	Dir Direction
}

func (p Port) String() string {
	s := "+"
	if p.Dir < 0 {
		s = "-"
	}
	return p.Dim.String() + s
}

// Ports lists all six torus ports in a fixed order (X+, X-, Y+, Y-, Z+, Z-).
var Ports = []Port{
	{X, +1}, {X, -1}, {Y, +1}, {Y, -1}, {Z, +1}, {Z, -1},
}

// PortIndex returns a dense index in [0,6) for p, in the order of Ports.
func PortIndex(p Port) int {
	i := int(p.Dim) * 2
	if p.Dir < 0 {
		i++
	}
	return i
}

// Coord is a node coordinate within the torus.
type Coord struct{ X, Y, Z int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Get returns the coordinate along dimension d.
func (c Coord) Get(d Dim) int {
	switch d {
	case X:
		return c.X
	case Y:
		return c.Y
	default:
		return c.Z
	}
}

// Set returns a copy of c with dimension d set to v.
func (c Coord) Set(d Dim, v int) Coord {
	switch d {
	case X:
		c.X = v
	case Y:
		c.Y = v
	default:
		c.Z = v
	}
	return c
}

// NodeID is a dense identifier for a node within a particular Torus.
type NodeID int

// Torus describes the machine's node grid.
type Torus struct {
	DimX, DimY, DimZ int
}

// NewTorus returns a torus with the given dimensions. All dimensions must
// be positive.
func NewTorus(x, y, z int) Torus {
	if x <= 0 || y <= 0 || z <= 0 {
		panic(fmt.Sprintf("topo: invalid torus dimensions %dx%dx%d", x, y, z))
	}
	return Torus{x, y, z}
}

// ParseTorus parses a torus size written XxYxZ, such as "8x8x8". Every
// dimension must be a positive integer.
func ParseTorus(s string) (Torus, error) {
	var d [NumDims]int
	parts := strings.Split(s, "x")
	ok := len(parts) == len(d)
	for i := 0; ok && i < len(d); i++ {
		var err error
		d[i], err = strconv.Atoi(parts[i])
		ok = err == nil && d[i] > 0
	}
	if !ok {
		return Torus{}, fmt.Errorf("bad torus %q (want XxYxZ with positive sizes)", s)
	}
	return NewTorus(d[0], d[1], d[2]), nil
}

// Nodes returns the total node count.
func (t Torus) Nodes() int { return t.DimX * t.DimY * t.DimZ }

// Size returns the extent of dimension d.
func (t Torus) Size(d Dim) int {
	switch d {
	case X:
		return t.DimX
	case Y:
		return t.DimY
	default:
		return t.DimZ
	}
}

func (t Torus) String() string { return fmt.Sprintf("%dx%dx%d", t.DimX, t.DimY, t.DimZ) }

// ID returns the dense node ID for coordinate c (which is wrapped).
func (t Torus) ID(c Coord) NodeID {
	c = t.Wrap(c)
	return NodeID((c.X*t.DimY+c.Y)*t.DimZ + c.Z)
}

// Coord returns the coordinate of node id.
func (t Torus) Coord(id NodeID) Coord {
	n := int(id)
	z := n % t.DimZ
	n /= t.DimZ
	y := n % t.DimY
	x := n / t.DimY
	return Coord{x, y, z}
}

// Wrap maps c into the canonical coordinate range of the torus.
func (t Torus) Wrap(c Coord) Coord {
	return Coord{mod(c.X, t.DimX), mod(c.Y, t.DimY), mod(c.Z, t.DimZ)}
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// Delta returns the signed shortest-path hop count from a to b along
// dimension d. Ties between the two directions (possible only for even
// dimension sizes at exactly half the ring) are broken toward the positive
// direction, so routing is deterministic.
func (t Torus) Delta(a, b Coord, d Dim) int {
	n := t.Size(d)
	diff := mod(b.Get(d)-a.Get(d), n)
	if diff > n/2 {
		return diff - n
	}
	if diff == n-diff && diff != 0 {
		// Exactly half way: deterministic positive direction.
		return diff
	}
	return diff
}

// Hops returns the total shortest-path hop count between a and b.
func (t Torus) Hops(a, b Coord) int {
	h := 0
	for d := X; d < NumDims; d++ {
		h += abs(t.Delta(a, b, d))
	}
	return h
}

// HopsByDim returns per-dimension unsigned hop counts between a and b.
func (t Torus) HopsByDim(a, b Coord) [NumDims]int {
	var h [NumDims]int
	for d := X; d < NumDims; d++ {
		h[d] = abs(t.Delta(a, b, d))
	}
	return h
}

// MaxHops returns the network diameter: the maximum shortest-path hop count
// between any two nodes (e.g. 12 for an 8x8x8 torus).
func (t Torus) MaxHops() int {
	return t.DimX/2 + t.DimY/2 + t.DimZ/2
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Step is one link traversal in a route.
type Step struct {
	From Coord
	To   Coord
	Port Port // outgoing port at From
}

// Route returns the dimension-ordered (X, then Y, then Z) shortest-path
// route from a to b as a sequence of link traversals. An empty route means
// a == b.
func (t Torus) Route(a, b Coord) []Step {
	var steps []Step
	cur := t.Wrap(a)
	for p, ok := t.RoutePort(cur, b); ok; p, ok = t.RoutePort(cur, b) {
		next := t.Neighbor(cur, p)
		steps = append(steps, Step{From: cur, To: next, Port: p})
		cur = next
	}
	return steps
}

// RoutePort returns the outgoing port of Route(a, b)'s first step; ok is
// false when a and b are the same node. The rest of a dimension-ordered
// route is the route from the next node, so a packet can be steered hop
// by hop with RoutePort alone. Every dimension moves toward its Delta, so
// the walk never turns back and ends at b after Hops(a, b) steps.
func (t Torus) RoutePort(a, b Coord) (p Port, ok bool) {
	for d := X; d < NumDims; d++ {
		if delta := t.Delta(a, b, d); delta != 0 {
			dir := Direction(+1)
			if delta < 0 {
				dir = -1
			}
			return Port{d, dir}, true
		}
	}
	return Port{}, false
}

// Neighbor returns the coordinate of the node reached from c through port p.
func (t Torus) Neighbor(c Coord, p Port) Coord {
	return t.Wrap(c.Set(p.Dim, c.Get(p.Dim)+int(p.Dir)))
}

// Neighbors26 returns the coordinates of the (up to) 26 distinct nodes in
// the 3x3x3 cube surrounding c, excluding c itself. On small tori some
// offsets alias to the same node or to c itself; duplicates are removed.
func (t Torus) Neighbors26(c Coord) []Coord {
	seen := map[NodeID]bool{t.ID(c): true}
	var out []Coord
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := t.Wrap(Coord{c.X + dx, c.Y + dy, c.Z + dz})
				id := t.ID(n)
				if !seen[id] {
					seen[id] = true
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// ForEach calls fn for every coordinate in the torus in ID order.
func (t Torus) ForEach(fn func(Coord)) {
	for x := 0; x < t.DimX; x++ {
		for y := 0; y < t.DimY; y++ {
			for z := 0; z < t.DimZ; z++ {
				fn(Coord{x, y, z})
			}
		}
	}
}

// AxisNodes returns the coordinates of all nodes sharing the ring through c
// along dimension d (including c itself), in increasing coordinate order.
func (t Torus) AxisNodes(c Coord, d Dim) []Coord {
	n := t.Size(d)
	out := make([]Coord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.Set(d, i))
	}
	return out
}

// C is a convenience constructor for Coord.
func C(x, y, z int) Coord { return Coord{X: x, Y: y, Z: z} }
