package md

import (
	"math"

	"anton/internal/fft"
	"anton/internal/par"
)

// GSE implements the k-space part of Gaussian split Ewald (Shan et al.,
// the paper's reference [39]), the long-range electrostatics method Anton
// uses: charges are spread onto a regular grid with a Gaussian (charge
// spreading, performed by the HTIS), the grid is convolved with the
// Coulomb Green's function via forward and inverse FFTs (the flexible
// subsystem), and forces are interpolated back from the potential grid
// with the same Gaussian (force interpolation, again the HTIS).
//
// With the spreading and interpolation Gaussians each of width
// sigma/sqrt(2), their combined smearing equals the Ewald k-space damping
// exp(-k^2 sigma^2/2), so the grid convolution uses the bare Coulomb
// kernel 4*pi/k^2.
type GSE struct {
	s       *System
	n       int     // grid side
	h       float64 // grid spacing
	sigmaG  float64 // spreading Gaussian width = Sigma/sqrt(2)
	support int     // spreading support radius in cells
	green   *fft.Grid
	phi     *fft.Grid // potential grid from the last Convolve
	// lastEnergy and lastVirial hold the spectral energy and virial trace
	// of the most recent Convolve (the reciprocal-space virial feeds the
	// barostat through the same all-reduce as the kinetic energy).
	lastEnergy, lastVirial float64
}

// NewGSE builds the grid machinery for s.
func NewGSE(s *System) *GSE {
	n := s.GridN
	if n&(n-1) != 0 || n <= 0 {
		panic("md: GridN must be a power of two")
	}
	g := &GSE{
		s:      s,
		n:      n,
		h:      s.Box / float64(n),
		sigmaG: s.Sigma / math.Sqrt2,
	}
	g.support = int(math.Ceil(4*g.sigmaG/g.h)) + 1
	g.green = g.GreenGrid()
	return g
}

// GreenGrid returns the convolution kernel in wave-number space: 4*pi/k^2
// with the k=0 mode zeroed (tinfoil boundary conditions). The distributed
// FFT uses the same grid. Each x plane is independent (every grid point is
// written exactly once from its own wave number), so the planes fill in
// parallel with bit-identical results for any worker count.
func (g *GSE) GreenGrid() *fft.Grid {
	grid := fft.NewGrid(g.n)
	grid.Workers = g.s.Workers
	L := g.s.Box
	par.ParFor(par.Workers(g.s.Workers), g.n, func(mx int) {
		for my := 0; my < g.n; my++ {
			for mz := 0; mz < g.n; mz++ {
				kx := waveNumber(mx, g.n, L)
				ky := waveNumber(my, g.n, L)
				kz := waveNumber(mz, g.n, L)
				k2 := kx*kx + ky*ky + kz*kz
				if k2 == 0 {
					continue
				}
				grid.Set(mx, my, mz, complex(4*math.Pi/k2, 0))
			}
		}
	})
	return grid
}

func waveNumber(m, n int, L float64) float64 {
	if m > n/2 {
		m -= n
	}
	return 2 * math.Pi * float64(m) / L
}

// gridContrib is one recorded charge deposit: grid index and weight.
type gridContrib struct {
	idx int
	v   float64
}

// atomShards partitions the atom indices into at most maxShards contiguous
// ranges — the fixed decomposition behind the parallel spreading and
// interpolation kernels.
func (g *GSE) atomShards() (shards int, bounds func(shard int) (lo, hi int)) {
	n := g.s.N()
	shards = n
	if shards > maxShards {
		shards = maxShards
	}
	return shards, func(s int) (int, int) { return s * n / shards, (s + 1) * n / shards }
}

// Spread builds the charge-density grid from the current positions.
//
// The Gaussian evaluations — one exp per support cell per atom, the HTIS's
// charge-spreading workload — shard by atom range. Workers record their
// deposits in atom order and the caller replays them in shard order, so the
// grid accumulation order is exactly the sequential one and the result is
// bit-identical for any worker count.
func (g *GSE) Spread() *fft.Grid {
	rho := fft.NewGrid(g.n)
	rho.Workers = g.s.Workers
	norm := math.Pow(2*math.Pi*g.sigmaG*g.sigmaG, -1.5)
	spreadAtom := func(i int, deposit func(idx int, v float64)) {
		q := g.s.Charge[i]
		if q == 0 {
			return
		}
		g.forEachSupportCell(g.s.Pos[i], func(gx, gy, gz int, d Vec3) {
			w := norm * math.Exp(-d.Norm2()/(2*g.sigmaG*g.sigmaG))
			deposit(rho.Idx(gx, gy, gz), q*w)
		})
	}
	workers := par.Workers(g.s.Workers)
	if workers == 1 {
		for i := range g.s.Pos {
			spreadAtom(i, func(idx int, v float64) { rho.Data[idx] += complex(v, 0) })
		}
		return rho
	}
	shards, bounds := g.atomShards()
	par.MapReduce(workers, shards, func(shard int) []gridContrib {
		lo, hi := bounds(shard)
		var out []gridContrib
		for i := lo; i < hi; i++ {
			spreadAtom(i, func(idx int, v float64) { out = append(out, gridContrib{idx, v}) })
		}
		return out
	}, func(_ int, contribs []gridContrib) {
		for _, c := range contribs {
			rho.Data[c.idx] += complex(c.v, 0)
		}
	})
	return rho
}

// forEachSupportCell visits the grid cells within the spreading support of
// position p, passing wrapped cell indices and the minimum-image
// displacement from the cell centre to p.
func (g *GSE) forEachSupportCell(p Vec3, fn func(gx, gy, gz int, d Vec3)) {
	cx := int(math.Floor(p.X / g.h))
	cy := int(math.Floor(p.Y / g.h))
	cz := int(math.Floor(p.Z / g.h))
	for dx := -g.support; dx <= g.support; dx++ {
		for dy := -g.support; dy <= g.support; dy++ {
			for dz := -g.support; dz <= g.support; dz++ {
				gx, gy, gz := mod(cx+dx, g.n), mod(cy+dy, g.n), mod(cz+dz, g.n)
				cell := Vec3{float64(cx+dx) * g.h, float64(cy+dy) * g.h, float64(cz+dz) * g.h}
				d := g.s.MinImage(p, cell)
				fn(gx, gy, gz, d)
			}
		}
	}
}

// Convolve computes the potential grid from a charge grid. Along the way
// it evaluates the reciprocal-space energy and virial spectrally: with
// rhoHat the transform of the sigma/sqrt(2)-smeared density,
//
//	E = (1/2V) sum_k |rhoHat|^2 4*pi/k^2
//	W = E - (2*pi*sigma^2/V) sum_k |rhoHat|^2
//
// (the second term is the volume derivative of the Gaussian screens).
func (g *GSE) Convolve(rho *fft.Grid) *fft.Grid {
	phi := rho.Clone()
	phi.Forward()
	v := g.s.Box * g.s.Box * g.s.Box
	h3 := g.h * g.h * g.h
	sigma2 := g.s.Sigma * g.s.Sigma
	var espec, wcorr float64
	for i := range phi.Data {
		gr := real(g.green.Data[i])
		if gr != 0 {
			c := phi.Data[i]
			a2 := (real(c)*real(c) + imag(c)*imag(c)) * h3 * h3
			espec += a2 * gr / (2 * v)
			wcorr += a2 * 2 * math.Pi * sigma2 / v
		}
		phi.Data[i] *= g.green.Data[i]
	}
	g.lastEnergy = espec
	g.lastVirial = espec - wcorr
	phi.Inverse()
	g.phi = phi
	return phi
}

// SpectralEnergy returns the reciprocal-space energy of the last Convolve,
// computed in k space (it agrees with the interpolated energy).
func (g *GSE) SpectralEnergy() float64 { return g.lastEnergy }

// Virial returns the reciprocal-space virial trace of the last Convolve.
func (g *GSE) Virial() float64 { return g.lastVirial }

// EnergyAndForces interpolates the potential grid back at the atom
// positions: it accumulates the k-space forces into s.Frc and returns the
// k-space energy (excluding the constant self-energy term).
// The interpolation kernel shards by atom range. Forces are per-atom
// (each shard owns its atoms' Frc entries, so parallel writes are
// disjoint); the scalar energy is recorded per atom and folded in atom
// order by the caller, reproducing the sequential accumulation bit for
// bit at any worker count.
func (g *GSE) EnergyAndForces(phi *fft.Grid) float64 {
	s := g.s
	h3 := g.h * g.h * g.h
	norm := math.Pow(2*math.Pi*g.sigmaG*g.sigmaG, -1.5)
	inv2s := 1 / (2 * g.sigmaG * g.sigmaG)
	invS2 := 1 / (g.sigmaG * g.sigmaG)
	// interpAtom evaluates atom i, adds its force into s.Frc[i], and
	// returns its energy contribution (false for chargeless atoms).
	interpAtom := func(i int) (float64, bool) {
		q := s.Charge[i]
		if q == 0 {
			return 0, false
		}
		var pot float64
		var force Vec3
		g.forEachSupportCell(s.Pos[i], func(gx, gy, gz int, d Vec3) {
			w := norm * math.Exp(-d.Norm2()*inv2s)
			ph := real(phi.At(gx, gy, gz))
			pot += w * ph
			// F = q * h^3 * sum_g (d/sigmaG^2) * w * phi_g
			force = force.Add(d.Scale(w * ph * invS2))
		})
		s.Frc[i] = s.Frc[i].Add(force.Scale(q * h3))
		return 0.5 * q * pot * h3, true
	}
	var energy float64
	workers := par.Workers(s.Workers)
	if workers == 1 {
		for i := range s.Pos {
			if e, ok := interpAtom(i); ok {
				energy += e
			}
		}
		return energy
	}
	shards, bounds := g.atomShards()
	par.MapReduce(workers, shards, func(shard int) []gridContrib {
		lo, hi := bounds(shard)
		var out []gridContrib
		for i := lo; i < hi; i++ {
			if e, ok := interpAtom(i); ok {
				out = append(out, gridContrib{i, e})
			}
		}
		return out
	}, func(_ int, contribs []gridContrib) {
		for _, c := range contribs {
			energy += c.v
		}
	})
	return energy
}

// LongRangeForces runs the full sequential k-space pipeline — spread,
// convolve, interpolate — accumulating forces and the reciprocal-space
// virial, and returning the k-space energy.
func (g *GSE) LongRangeForces() float64 {
	e := g.EnergyAndForces(g.Convolve(g.Spread()))
	g.s.Virial += g.lastVirial
	return e
}
