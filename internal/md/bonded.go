package md

import "math"

// BondForces accumulates harmonic bond forces and returns their energy.
func (s *System) BondForces() float64 {
	var e float64
	for _, b := range s.Bonds {
		d := s.MinImage(s.Pos[b.I], s.Pos[b.J])
		r := d.Norm()
		dr := r - b.R0
		e += b.K * dr * dr
		// F_I = -dV/dr_I = -2K(r-R0) * d/r
		f := d.Scale(-2 * b.K * dr / r)
		s.Frc[b.I] = s.Frc[b.I].Add(f)
		s.Frc[b.J] = s.Frc[b.J].Sub(f)
		s.Virial += f.Dot(d)
	}
	return e
}

// AngleForces accumulates harmonic angle forces and returns their energy.
func (s *System) AngleForces() float64 {
	var e float64
	for _, a := range s.Angles {
		// J is the vertex.
		rij := s.MinImage(s.Pos[a.I], s.Pos[a.J])
		rkj := s.MinImage(s.Pos[a.K], s.Pos[a.J])
		ri, rk := rij.Norm(), rkj.Norm()
		cosT := rij.Dot(rkj) / (ri * rk)
		cosT = clamp(cosT, -1, 1)
		theta := math.Acos(cosT)
		dTheta := theta - a.Theta0
		e += a.KTheta * dTheta * dTheta

		sinT := math.Sqrt(1 - cosT*cosT)
		if sinT < 1e-8 {
			continue // collinear: force direction undefined, energy extremal
		}
		// dV/dtheta = 2*K*dTheta; convert to Cartesian forces.
		c := 2 * a.KTheta * dTheta / sinT
		fi := rkj.Scale(1 / (ri * rk)).Sub(rij.Scale(cosT / (ri * ri))).Scale(c)
		fk := rij.Scale(1 / (ri * rk)).Sub(rkj.Scale(cosT / (rk * rk))).Scale(c)
		s.Frc[a.I] = s.Frc[a.I].Add(fi)
		s.Frc[a.K] = s.Frc[a.K].Add(fk)
		s.Frc[a.J] = s.Frc[a.J].Sub(fi.Add(fk))
		// The term's forces sum to zero, so positions relative to the
		// vertex give a translation-invariant virial contribution.
		s.Virial += fi.Dot(rij) + fk.Dot(rkj)
	}
	return e
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
