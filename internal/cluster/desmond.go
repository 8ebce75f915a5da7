package cluster

import "anton/internal/sim"

// Desmond models the communication phases of the Desmond MD software
// (Bowers et al., the paper's reference [12]) running the DHFR benchmark
// on the 512-node cluster: the comparison column of Table 3. Desmond's
// midpoint method exchanges positions and forces with neighbours in a
// three-stage staged pattern (six messages per node, Figure 8a), performs
// the FFT with transpose-based all-to-all rounds, and computes the
// thermostat with MPI all-reduces. Compute-phase durations are constants
// taken from the published per-step breakdown of [15].
type Desmond struct {
	C *Cluster

	// PosBytes/ForceBytes: per-message payloads of the staged exchanges.
	PosBytes, ForceBytes int
	// FFTRounds transpose rounds, each an all-to-all among FFTGroup ranks
	// exchanging FFTBytes messages.
	FFTRounds, FFTGroup, FFTBytes int
	// ThermoSoftware: thermostat software time outside the all-reduces.
	ThermoSoftware sim.Dur

	// Published compute (non-communication) times per phase.
	RangeLimitedCompute sim.Dur
	LongRangeCompute    sim.Dur
	FFTCompute          sim.Dur
	ThermostatCompute   sim.Dur
}

// DesmondDefaults returns the calibrated Desmond parameters without a
// cluster attached: the single source the event-driven model (NewDesmond)
// and the closed-form fast path (internal/analytic) both draw from.
func DesmondDefaults() Desmond {
	return Desmond{
		PosBytes:            2200,
		ForceBytes:          2200,
		FFTRounds:           3,
		FFTGroup:            64,
		FFTBytes:            256,
		ThermoSoftware:      7 * sim.Us,
		RangeLimitedCompute: 243 * sim.Us,
		LongRangeCompute:    363 * sim.Us,
		FFTCompute:          60 * sim.Us,
		ThermostatCompute:   21 * sim.Us,
	}
}

// NewDesmond returns the calibrated Desmond model on cluster c.
func NewDesmond(c *Cluster) *Desmond {
	d := DesmondDefaults()
	d.C = c
	return &d
}

// RangeLimitedComm runs the communication of a range-limited time step:
// the staged position exchange followed by the staged force exchange.
func (d *Desmond) RangeLimitedComm(done func(at sim.Time)) {
	d.C.StagedNeighborExchange(d.PosBytes, func(sim.Time) {
		d.C.StagedNeighborExchange(d.ForceBytes, done)
	})
}

// FFTComm runs the communication of the FFT-based convolution:
// FFTRounds transpose rounds, each an all-to-all within groups, with
// marshalling between rounds.
func (d *Desmond) FFTComm(done func(at sim.Time)) {
	d.round(0, done)
}

func (d *Desmond) round(k int, done func(at sim.Time)) {
	if k >= d.FFTRounds {
		done(d.C.Sim.Now())
		return
	}
	d.groupAllToAll(func(sim.Time) {
		d.C.Sim.After(d.C.Model.MarshalPerStage, sim.Func(func() { d.round(k+1, done) }))
	})
}

// groupAllToAll: every rank exchanges one message with each other rank of
// its group; done fires when all ranks have received everything.
func (d *Desmond) groupAllToAll(done func(at sim.Time)) {
	c := d.C
	g := d.FFTGroup
	if g > c.N {
		g = c.N
	}
	remaining := c.N
	expected := g - 1
	got := make([]int, c.N)
	finished := make([]bool, c.N)
	finish := func(dst int, at sim.Time) {
		if finished[dst] {
			return
		}
		finished[dst] = true
		remaining--
		if remaining == 0 {
			done(at)
		}
	}
	for base := 0; base < c.N; base += g {
		for i := 0; i < g; i++ {
			src := base + i
			for j := 0; j < g; j++ {
				if i == j {
					continue
				}
				dst := base + j
				c.Send(src, dst, d.FFTBytes, func(at sim.Time) {
					got[dst]++
					if got[dst] >= expected {
						finish(dst, at)
					}
				})
			}
		}
		// Under a kill plan a rank's shortfall may be permanent: degrade
		// once enough of its group peers are dead to explain it.
		for j := 0; j < g; j++ {
			dst := base + j
			base := base
			c.watchCollective(
				func() bool { return !finished[dst] },
				func() bool {
					now := c.Sim.Now()
					if c.Faults().NodeKilledAt(dst, now) {
						return true
					}
					dead := 0
					for i := 0; i < g; i++ {
						if base+i != dst && c.Faults().NodeKilledAt(base+i, now) {
							dead++
						}
					}
					return dead >= expected-got[dst]
				},
				func() { finish(dst, c.Sim.Now()) },
			)
		}
	}
}

// ThermostatComm runs the thermostat's communication: two 32-byte
// all-reduces (kinetic energy out, scale factors back) plus software
// overhead.
func (d *Desmond) ThermostatComm(done func(at sim.Time)) {
	d.C.AllReduce(32, func(sim.Time) {
		d.C.AllReduce(32, func(sim.Time) {
			d.C.Sim.After(d.ThermoSoftware, sim.Func(func() { done(d.C.Sim.Now()) }))
		})
	})
}

// LongRangeComm runs the communication of a long-range time step: the
// range-limited exchanges plus the FFT convolution plus the thermostat.
func (d *Desmond) LongRangeComm(done func(at sim.Time)) {
	d.RangeLimitedComm(func(sim.Time) {
		d.FFTComm(func(sim.Time) {
			d.ThermostatComm(done)
		})
	})
}

// PhaseTimes measures each communication phase on a fresh simulated
// cluster and returns the Table 3 Desmond column (all values sim.Dur).
type PhaseTimes struct {
	RangeLimitedComm sim.Dur
	FFTComm          sim.Dur
	ThermostatComm   sim.Dur
	LongRangeComm    sim.Dur
}

// Measure runs the three comm phases independently (each on a fresh
// cluster at rest, as the paper's per-phase profiling does).
func Measure(n int, model Model) PhaseTimes { return MeasureSim(n, model, sim.New) }

// MeasureSim is Measure with a caller-supplied simulator constructor,
// which is how the harness attaches its fault plan to the Desmond
// baseline: each phase runs on a fresh simulator from newSim.
func MeasureSim(n int, model Model, newSim func() *sim.Sim) PhaseTimes {
	var pt PhaseTimes
	run := func(f func(d *Desmond, done func(sim.Time))) sim.Dur {
		s := newSim()
		d := NewDesmond(New(s, n, model))
		var at sim.Time
		f(d, func(tm sim.Time) { at = tm })
		s.Run()
		return sim.Dur(at)
	}
	pt.RangeLimitedComm = run(func(d *Desmond, done func(sim.Time)) { d.RangeLimitedComm(done) })
	pt.FFTComm = run(func(d *Desmond, done func(sim.Time)) { d.FFTComm(done) })
	pt.ThermostatComm = run(func(d *Desmond, done func(sim.Time)) { d.ThermostatComm(done) })
	pt.LongRangeComm = run(func(d *Desmond, done func(sim.Time)) { d.LongRangeComm(done) })
	return pt
}
