package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDCoordRoundtrip(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	seen := make(map[NodeID]bool)
	tor.ForEach(func(c Coord) {
		id := tor.ID(c)
		if seen[id] {
			t.Fatalf("duplicate ID %d for %v", id, c)
		}
		seen[id] = true
		if got := tor.Coord(id); got != c {
			t.Fatalf("Coord(ID(%v)) = %v", c, got)
		}
	})
	if len(seen) != 512 {
		t.Fatalf("enumerated %d nodes, want 512", len(seen))
	}
}

func TestIDCoordRoundtripNonCubic(t *testing.T) {
	for _, tor := range []Torus{NewTorus(8, 8, 16), NewTorus(8, 2, 8), NewTorus(1, 1, 1), NewTorus(3, 5, 7)} {
		for id := NodeID(0); int(id) < tor.Nodes(); id++ {
			if got := tor.ID(tor.Coord(id)); got != id {
				t.Fatalf("%v: ID(Coord(%d)) = %d", tor, id, got)
			}
		}
	}
}

func TestWrap(t *testing.T) {
	tor := NewTorus(8, 4, 2)
	cases := []struct{ in, want Coord }{
		{Coord{-1, 0, 0}, Coord{7, 0, 0}},
		{Coord{8, 4, 2}, Coord{0, 0, 0}},
		{Coord{15, -5, 3}, Coord{7, 3, 1}},
		{Coord{3, 2, 1}, Coord{3, 2, 1}},
	}
	for _, c := range cases {
		if got := tor.Wrap(c.in); got != c.want {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDeltaShortestPath(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	a := Coord{0, 0, 0}
	cases := []struct {
		b    Coord
		d    Dim
		want int
	}{
		{Coord{1, 0, 0}, X, 1},
		{Coord{7, 0, 0}, X, -1},
		{Coord{4, 0, 0}, X, 4}, // tie broken positive
		{Coord{5, 0, 0}, X, -3},
		{Coord{0, 3, 0}, Y, 3},
		{Coord{0, 0, 6}, Z, -2},
	}
	for _, c := range cases {
		if got := tor.Delta(a, c.b, c.d); got != c.want {
			t.Errorf("Delta(%v,%v,%v) = %d, want %d", a, c.b, c.d, got, c.want)
		}
	}
}

func TestMaxHops(t *testing.T) {
	if got := NewTorus(8, 8, 8).MaxHops(); got != 12 {
		t.Errorf("8x8x8 MaxHops = %d, want 12 (paper: twelve hops is the max distance)", got)
	}
	if got := NewTorus(8, 8, 16).MaxHops(); got != 16 {
		t.Errorf("8x8x16 MaxHops = %d, want 16", got)
	}
	if got := NewTorus(4, 4, 4).MaxHops(); got != 6 {
		t.Errorf("4x4x4 MaxHops = %d, want 6", got)
	}
}

func TestRouteDimensionOrdered(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	route := tor.Route(Coord{0, 0, 0}, Coord{2, 7, 4})
	// X: +2 hops, Y: -1 hop, Z: +4 hops (tie positive) = 7 steps.
	if len(route) != 7 {
		t.Fatalf("route length %d, want 7", len(route))
	}
	// Dimension order must be nondecreasing X->Y->Z.
	lastDim := Dim(-1)
	for _, s := range route {
		if s.Port.Dim < lastDim {
			t.Fatalf("route not dimension ordered: %v", route)
		}
		lastDim = s.Port.Dim
	}
	if route[0].Port != (Port{X, +1}) || route[2].Port != (Port{Y, -1}) || route[3].Port != (Port{Z, +1}) {
		t.Fatalf("unexpected ports: %v", route)
	}
	if route[len(route)-1].To != (Coord{2, 7, 4}) {
		t.Fatalf("route ends at %v", route[len(route)-1].To)
	}
}

func TestRouteSelfEmpty(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	if r := tor.Route(Coord{3, 3, 3}, Coord{3, 3, 3}); len(r) != 0 {
		t.Fatalf("self route = %v, want empty", r)
	}
}

// refRoute is dimension-ordered routing written out per dimension: all
// of X's Delta, then Y's, then Z's.
func refRoute(t Torus, a, b Coord) []Step {
	var steps []Step
	cur := t.Wrap(a)
	for d := X; d < NumDims; d++ {
		delta := t.Delta(cur, b, d)
		dir := Direction(+1)
		if delta < 0 {
			dir, delta = -1, -delta
		}
		for i := 0; i < delta; i++ {
			next := t.Wrap(cur.Set(d, cur.Get(d)+int(dir)))
			steps = append(steps, Step{From: cur, To: next, Port: Port{d, dir}})
			cur = next
		}
	}
	return steps
}

// Route, the walk over RoutePort, takes exactly the per-dimension route
// on every pair of nodes of tori with odd, even and unit dimensions,
// including the half-ring ties.
func TestRouteMatchesReference(t *testing.T) {
	for _, tor := range []Torus{NewTorus(8, 8, 8), NewTorus(5, 4, 1), NewTorus(2, 3, 6)} {
		for a := 0; a < tor.Nodes(); a++ {
			for b := 0; b < tor.Nodes(); b++ {
				from, to := tor.Coord(NodeID(a)), tor.Coord(NodeID(b))
				got, want := tor.Route(from, to), refRoute(tor, from, to)
				if len(got) != len(want) {
					t.Fatalf("%v: %v->%v: %d steps, want %d", tor, from, to, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v: %v->%v step %d = %v, want %v", tor, from, to, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Property: a route is contiguous, its length equals Hops(a,b), and each
// step moves exactly one wrapped unit along its port's dimension.
func TestRouteProperty(t *testing.T) {
	tor := NewTorus(8, 4, 6)
	f := func(ax, ay, az, bx, by, bz uint8) bool {
		a := tor.Wrap(Coord{int(ax), int(ay), int(az)})
		b := tor.Wrap(Coord{int(bx), int(by), int(bz)})
		route := tor.Route(a, b)
		if len(route) != tor.Hops(a, b) {
			return false
		}
		cur := a
		for _, s := range route {
			if s.From != cur {
				return false
			}
			if tor.Neighbor(cur, s.Port) != s.To {
				return false
			}
			cur = s.To
		}
		return cur == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop count is symmetric and satisfies the triangle inequality.
func TestHopsMetricProperty(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	rng := rand.New(rand.NewSource(42))
	randCoord := func() Coord {
		return Coord{rng.Intn(8), rng.Intn(8), rng.Intn(8)}
	}
	for i := 0; i < 1000; i++ {
		a, b, c := randCoord(), randCoord(), randCoord()
		if tor.Hops(a, b) != tor.Hops(b, a) {
			t.Fatalf("asymmetric hops %v %v", a, b)
		}
		if tor.Hops(a, c) > tor.Hops(a, b)+tor.Hops(b, c) {
			t.Fatalf("triangle violated %v %v %v", a, b, c)
		}
		if a == b && tor.Hops(a, b) != 0 {
			t.Fatalf("nonzero self distance")
		}
	}
}

// Delta, HopsByDim and Wrap agree with plain modulo arithmetic for every
// pair of coordinates up to two rings out of range, on rings of one to
// nine nodes: the division-free paths for in-range values and the
// division for the rest give the same answers.
func TestRingArithmeticMatchesModulo(t *testing.T) {
	ref := func(a, n int) int { return ((a % n) + n) % n }
	for n := 1; n <= 9; n++ {
		tor := NewTorus(n, n+1, 1)
		for a := -2 * n; a <= 2*n; a++ {
			if got, want := tor.Wrap(Coord{a, 0, 0}).X, ref(a, n); got != want {
				t.Fatalf("n=%d: Wrap(%d) = %d, want %d", n, a, got, want)
			}
			for b := -2 * n; b <= 2*n; b++ {
				want := ref(b-a, n)
				if want > n/2 {
					want -= n
				}
				ca, cb := Coord{a, 0, 0}, Coord{b, 0, 0}
				if got := tor.Delta(ca, cb, X); got != want {
					t.Fatalf("n=%d: Delta(%d, %d) = %d, want %d", n, a, b, got, want)
				}
				if got := tor.HopsByDim(ca, cb); got != [NumDims]int{abs(want), 0, 0} {
					t.Fatalf("n=%d: HopsByDim(%v, %v) = %v, want [%d 0 0]", n, ca, cb, got, abs(want))
				}
			}
		}
	}
}

func TestHopsByDim(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	h := tor.HopsByDim(Coord{0, 0, 0}, Coord{6, 4, 1})
	if h != [3]int{2, 4, 1} {
		t.Fatalf("HopsByDim = %v, want [2 4 1]", h)
	}
}

func TestNeighbors26(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	n := tor.Neighbors26(Coord{0, 0, 0})
	if len(n) != 26 {
		t.Fatalf("got %d neighbors, want 26", len(n))
	}
	seen := map[Coord]bool{}
	for _, c := range n {
		if seen[c] {
			t.Fatalf("duplicate neighbor %v", c)
		}
		seen[c] = true
		if tor.Hops(Coord{0, 0, 0}, c) > 3 {
			t.Fatalf("neighbor %v too far", c)
		}
	}
}

func TestNeighbors26SmallTorus(t *testing.T) {
	// On a 2x2x2 torus the 26 offsets alias heavily: only 7 distinct others.
	tor := NewTorus(2, 2, 2)
	n := tor.Neighbors26(Coord{0, 0, 0})
	if len(n) != 7 {
		t.Fatalf("got %d neighbors on 2x2x2, want 7", len(n))
	}
}

func TestAxisNodes(t *testing.T) {
	tor := NewTorus(8, 8, 8)
	axis := tor.AxisNodes(Coord{3, 4, 5}, Y)
	if len(axis) != 8 {
		t.Fatalf("axis length %d", len(axis))
	}
	for i, c := range axis {
		if c.X != 3 || c.Z != 5 || c.Y != i {
			t.Fatalf("axis[%d] = %v", i, c)
		}
	}
}

func TestPortIndex(t *testing.T) {
	for i, p := range Ports {
		if PortIndex(p) != i {
			t.Fatalf("PortIndex(%v) = %d, want %d", p, PortIndex(p), i)
		}
	}
	if Ports[0].String() != "X+" || Ports[5].String() != "Z-" {
		t.Fatalf("port strings: %v %v", Ports[0], Ports[5])
	}
}

func TestDimString(t *testing.T) {
	if X.String() != "X" || Y.String() != "Y" || Z.String() != "Z" {
		t.Fatal("dim strings wrong")
	}
	if Dim(9).String() != "Dim(9)" {
		t.Fatal("unknown dim string wrong")
	}
}

func TestInvalidTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimension")
		}
	}()
	NewTorus(0, 8, 8)
}

func TestCoordGetSet(t *testing.T) {
	c := Coord{1, 2, 3}
	for d := X; d < NumDims; d++ {
		got := c.Set(d, 9)
		if got.Get(d) != 9 {
			t.Fatalf("Set/Get dim %v failed", d)
		}
		// Other dims unchanged.
		for e := X; e < NumDims; e++ {
			if e != d && got.Get(e) != c.Get(e) {
				t.Fatalf("Set(%v) clobbered %v", d, e)
			}
		}
	}
}

// Property (testing/quick): ID and Coord are inverse bijections for
// arbitrary wrapped coordinates.
func TestIDCoordBijectionProperty(t *testing.T) {
	tor := NewTorus(8, 4, 2)
	f := func(x, y, z int16) bool {
		c := tor.Wrap(Coord{int(x), int(y), int(z)})
		return tor.Coord(tor.ID(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseTorus(t *testing.T) {
	if tor, err := ParseTorus("8x4x2"); err != nil || tor != NewTorus(8, 4, 2) {
		t.Fatalf("ParseTorus(8x4x2) = %v, %v", tor, err)
	}
	for _, s := range []string{"", "8", "8x8", "8x8x8x8", "0x4x4", "4x-1x4", "4x4x0", "axbxc", "4x4x", "4 x4x4"} {
		if tor, err := ParseTorus(s); err == nil {
			t.Errorf("ParseTorus(%q) = %v, want an error", s, tor)
		}
	}
}
