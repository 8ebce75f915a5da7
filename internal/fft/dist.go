package fft

import (
	"fmt"

	"anton/internal/machine"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Dist is a distributed dimension-ordered 3D FFT convolution running on a
// simulated Anton machine. The grid starts in the box decomposition that
// mirrors the MD spatial decomposition; the forward transform performs 1D
// FFTs in the x dimension, then y, then z, with a fine-grained
// counted-remote-write redistribution (one grid point per packet) between
// dimensions; the inverse transform runs in the reverse dimension order.
// Per-dimension synchronization counters track the incoming remote writes,
// so the communication pattern is entirely fixed — no handshakes.
type Dist struct {
	m *machine.Machine
	// N is the grid side; n the (cubic) torus side; b = N/n the box side;
	// lpn = b*b/n the pencil lines owned per node per stage.
	N, n, b, lpn int
	// CtrBase is the first of six synchronization-counter labels (one per
	// redistribution).
	CtrBase packet.CounterID
	// PerPoint is the flexible-subsystem compute cost per grid point per
	// 1D-FFT stage.
	PerPoint sim.Dur
	// Bytes is the wire payload per grid-point packet (a complex value).
	Bytes int

	gen uint64
}

// Stage bases within the slice-0 local memory, spaced far enough apart for
// any supported grid size.
const distStride = 1 << 16

// NewDist validates the machine/grid combination and returns a distributed
// FFT. The torus must be cubic, the grid side divisible by the torus side,
// and the per-row line count divisible by the row length.
func NewDist(m *machine.Machine, gridN int, ctrBase packet.CounterID) *Dist {
	t := m.Torus
	if t.DimX != t.DimY || t.DimY != t.DimZ {
		panic(fmt.Sprintf("fft: distributed FFT requires a cubic torus, got %v", t))
	}
	n := t.DimX
	if gridN%n != 0 {
		panic(fmt.Sprintf("fft: grid side %d not divisible by torus side %d", gridN, n))
	}
	b := gridN / n
	if (b*b)%n != 0 {
		panic(fmt.Sprintf("fft: %d lines per node row not divisible by row length %d", b*b, n))
	}
	return &Dist{
		m: m, N: gridN, n: n, b: b, lpn: b * b / n,
		CtrBase:  ctrBase,
		PerPoint: 2500 * sim.Ps,
		Bytes:    16,
	}
}

// stage identifiers, in execution order.
const (
	stFwdX = iota // box -> x pencils, FFT x
	stFwdY        // x -> y pencils, FFT y
	stFwdZ        // y -> z pencils, FFT z, multiply, IFFT z
	stInvY        // z -> y pencils, IFFT y
	stInvX        // y -> x pencils, IFFT x
	stBox         // x pencils -> box
	numStages
)

func (d *Dist) client(n topo.NodeID) *machine.Client {
	return d.m.Client(packet.Client{Node: n, Kind: packet.Slice0})
}

// sender returns the injecting client for the k-th packet of a node's
// redistribution: the four processing slices of the flexible subsystem
// share the injection work round-robin, as on the real machine, while all
// pencil buffers live in slice 0's local memory.
func (d *Dist) sender(n topo.NodeID, k int) *machine.Client {
	return d.m.Client(packet.Client{Node: n, Kind: packet.Slice(k % 4)})
}

// ownerInRow returns the ring position owning pencil line (u, v) of a
// node-row, where u and v are the box-local coordinates of the two fixed
// dimensions.
func (d *Dist) ownerInRow(u, v int) int { return (u*d.b + v) / d.lpn }

// lineLocal returns the node-local line index for box-local (u, v).
func (d *Dist) lineLocal(u, v int) int { return (u*d.b + v) % d.lpn }

// Expected returns the number of packets every node receives in each
// pencil redistribution (the receiver's precomputed counter target).
func (d *Dist) Expected() int { return d.lpn * d.N }

// ComputePerNode returns the total per-node arithmetic charged during one
// convolution: five single-cost stages plus the double-cost forward-Z
// stage (FFT, green multiply, inverse FFT).
func (d *Dist) ComputePerNode() sim.Dur {
	return 7 * sim.Dur(d.lpn*d.N) * d.PerPoint
}

// Convolve runs the full FFT-based convolution: forward transform of the
// grid, point-wise multiplication by green (in wave-number space), and
// inverse transform. in must have side N and is interpreted as the initial
// box-decomposed charge grid; done receives the convolved grid and the
// completion time of the final counted remote write.
func (d *Dist) Convolve(in, green *Grid, done func(out *Grid, at sim.Time)) {
	if in.N != d.N || green.N != d.N {
		panic("fft: grid size mismatch")
	}
	d.gen++
	nodes := d.m.Torus.Nodes()
	remaining := nodes
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		out := NewGrid(d.N)
		d.m.Torus.ForEach(func(c topo.Coord) {
			cl := d.client(d.m.Torus.ID(c))
			base := stBox * distStride
			for lx := 0; lx < d.b; lx++ {
				for ly := 0; ly < d.b; ly++ {
					for lz := 0; lz < d.b; lz++ {
						addr := base + ((lx*d.b+ly)*d.b+lz)*2
						w := cl.Mem(addr, 2)
						out.Set(c.X*d.b+lx, c.Y*d.b+ly, c.Z*d.b+lz, complex(w[0], w[1]))
					}
				}
			}
		})
		done(out, d.m.Sim.Now())
	}

	d.m.Torus.ForEach(func(c topo.Coord) {
		id := d.m.Torus.ID(c)
		// Scatter this node's box points into x pencils.
		d.sendBoxToX(c, in)
		// Then walk the stage chain.
		d.runStage(id, c, stFwdX, green, finish)
	})
}

// runStage waits for the stage's incoming counted remote writes, performs
// the stage's computation, and emits the next redistribution.
func (d *Dist) runStage(id topo.NodeID, c topo.Coord, stage int, green *Grid, finish func()) {
	cl := d.client(id)
	ctr := d.CtrBase + packet.CounterID(stage)
	var expected uint64
	if stage == stBox {
		expected = uint64(d.b * d.b * d.b)
	} else {
		expected = uint64(d.Expected())
	}
	cl.Wait(ctr, d.gen*expected, func() {
		if stage == stBox {
			finish()
			return
		}
		cost := sim.Dur(d.lpn*d.N) * d.PerPoint
		if stage == stFwdZ {
			// FFT z, green multiply, and IFFT z all happen locally.
			cost *= 2
		}
		d.m.Sim.After(cost, func() {
			d.compute(id, c, stage, green)
			d.emit(id, c, stage)
			d.runStage(id, c, nextStage(stage), green, finish)
		})
	})
}

func nextStage(stage int) int { return stage + 1 }

// compute applies the stage's 1D transforms (and the convolution multiply
// for the final forward stage) to the node's pencil buffer.
func (d *Dist) compute(id topo.NodeID, c topo.Coord, stage int, green *Grid) {
	cl := d.client(id)
	base := stage * distStride
	line := make([]complex128, d.N)
	for l := 0; l < d.lpn; l++ {
		buf := cl.Mem(base+l*d.N*2, d.N*2)
		for i := 0; i < d.N; i++ {
			line[i] = complex(buf[2*i], buf[2*i+1])
		}
		switch stage {
		case stFwdX, stFwdY:
			FFT(line)
		case stFwdZ:
			FFT(line)
			u, v := d.lineCoords(c, stage, l)
			for z := 0; z < d.N; z++ {
				line[z] *= green.At(u, v, z)
			}
			IFFT(line)
		case stInvY, stInvX:
			IFFT(line)
		}
		for i := 0; i < d.N; i++ {
			buf[2*i], buf[2*i+1] = real(line[i]), imag(line[i])
		}
	}
}

// lineCoords returns the global coordinates of the two fixed dimensions of
// node c's l-th pencil line in the given stage's layout. For x pencils the
// pair is (y, z); for y pencils (x, z); for z pencils (x, y).
func (d *Dist) lineCoords(c topo.Coord, stage int, l int) (int, int) {
	var ring int // position along the pencil-owning torus dimension
	switch stage {
	case stFwdX, stInvX:
		ring = c.X
	case stFwdY, stInvY:
		ring = c.Y
	default:
		ring = c.Z
	}
	idx := ring*d.lpn + l // line index within the node row
	lu, lv := idx/d.b, idx%d.b
	switch stage {
	case stFwdX, stInvX:
		return c.Y*d.b + lu, c.Z*d.b + lv
	case stFwdY, stInvY:
		return c.X*d.b + lu, c.Z*d.b + lv
	default:
		return c.X*d.b + lu, c.Y*d.b + lv
	}
}

// sendBoxToX scatters node c's box of the input grid into x pencils.
func (d *Dist) sendBoxToX(c topo.Coord, in *Grid) {
	id := d.m.Torus.ID(c)
	ctr := d.CtrBase + packet.CounterID(stFwdX)
	k := 0
	for lx := 0; lx < d.b; lx++ {
		for ly := 0; ly < d.b; ly++ {
			for lz := 0; lz < d.b; lz++ {
				x, y, z := c.X*d.b+lx, c.Y*d.b+ly, c.Z*d.b+lz
				owner := topo.C(d.ownerInRow(ly, lz), c.Y, c.Z)
				addr := stFwdX*distStride + (d.lineLocal(ly, lz)*d.N+x)*2
				v := in.At(x, y, z)
				d.sender(id, k).Write(packet.Client{Node: d.m.Torus.ID(owner), Kind: packet.Slice0},
					ctr, addr, d.Bytes, real(v), imag(v))
				k++
			}
		}
	}
}

// emit sends the node's freshly computed pencil data into the next stage's
// layout.
func (d *Dist) emit(id topo.NodeID, c topo.Coord, stage int) {
	cl := d.client(id)
	base := stage * distStride
	next := nextStage(stage)
	ctr := d.CtrBase + packet.CounterID(next)
	k := 0
	for l := 0; l < d.lpn; l++ {
		u, v := d.lineCoords(c, stage, l)
		buf := cl.Mem(base+l*d.N*2, d.N*2)
		for i := 0; i < d.N; i++ {
			dstCoord, addr := d.destFor(c, stage, u, v, i)
			d.sender(id, k).Write(packet.Client{Node: d.m.Torus.ID(dstCoord), Kind: packet.Slice0},
				ctr, addr, d.Bytes, buf[2*i], buf[2*i+1])
			k++
		}
	}
}

// destFor maps one grid point, identified by its stage layout (fixed
// coordinates u, v and running coordinate i), to its owner and local
// address in the *next* stage's layout.
func (d *Dist) destFor(c topo.Coord, stage, u, v, i int) (topo.Coord, int) {
	next := nextStage(stage)
	base := next * distStride
	switch stage {
	case stFwdX: // x pencils (u=y, v=z, i=x) -> y pencils (fixed x, z)
		x, y, z := i, u, v
		dst := topo.C(x/d.b, d.ownerInRow(x%d.b, z%d.b), c.Z)
		return dst, base + (d.lineLocal(x%d.b, z%d.b)*d.N+y)*2
	case stFwdY: // y pencils (u=x, v=z, i=y) -> z pencils (fixed x, y)
		x, y, z := u, i, v
		dst := topo.C(c.X, y/d.b, d.ownerInRow(x%d.b, y%d.b))
		return dst, base + (d.lineLocal(x%d.b, y%d.b)*d.N+z)*2
	case stFwdZ: // z pencils (u=x, v=y, i=z) -> y pencils (fixed x, z)
		x, y, z := u, v, i
		dst := topo.C(c.X, d.ownerInRow(x%d.b, z%d.b), z/d.b)
		return dst, base + (d.lineLocal(x%d.b, z%d.b)*d.N+y)*2
	case stInvY: // y pencils (u=x, v=z, i=y) -> x pencils (fixed y, z)
		x, y, z := u, i, v
		dst := topo.C(d.ownerInRow(y%d.b, z%d.b), y/d.b, c.Z)
		return dst, base + (d.lineLocal(y%d.b, z%d.b)*d.N+x)*2
	case stInvX: // x pencils (u=y, v=z, i=x) -> box
		x, y, z := i, u, v
		dst := topo.C(x/d.b, y/d.b, z/d.b)
		local := ((x%d.b)*d.b+(y%d.b))*d.b + (z % d.b)
		return dst, base + local*2
	}
	panic("fft: no next layout")
}
