package mdmap

import (
	"math"

	"anton/internal/fft"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
	"anton/internal/trace"
)

// StepKind distinguishes the two alternating time-step types of Table 3.
type StepKind int

const (
	// RangeLimited steps compute bonded and range-limited forces only.
	RangeLimited StepKind = iota
	// LongRange steps additionally run charge spreading, the FFT-based
	// convolution, force interpolation, and (if enabled) the thermostat.
	LongRange
)

func (k StepKind) String() string {
	if k == LongRange {
		return "long-range"
	}
	return "range-limited"
}

// StepTiming reports one simulated time step.
type StepTiming struct {
	Kind    StepKind
	Total   sim.Dur
	Compute sim.Dur // critical-path arithmetic (max per-node compute)
	Comm    sim.Dur // Total - Compute: the paper's communication metric
	FFT     sim.Dur // FFT-based convolution extent (long-range steps)
	Thermo  sim.Dur // thermostat all-reduce + adjustment extent
	Migr    sim.Dur // migration phase extent
	// Average per-node packet counts for the step.
	SentPerNode, RecvPerNode float64
}

// NextKind returns the kind the next RunStep will execute.
func (mp *Mapping) NextKind() StepKind {
	if mp.Cfg.LongRangeInterval > 0 && (mp.stepIndex+1)%mp.Cfg.LongRangeInterval == 0 {
		return LongRange
	}
	return RangeLimited
}

// RunStep executes one MD time step on the machine's event simulator and
// returns its timing. The simulator is run to completion, so RunStep must
// not be interleaved with other uses of the same sim.
func (mp *Mapping) RunStep() StepTiming {
	m := mp.M
	s := m.Sim
	kind := mp.NextKind()
	mp.stepIndex++
	migrate := mp.Cfg.MigrationInterval > 0 && mp.stepIndex%mp.Cfg.MigrationInterval == 0
	thermo := kind == LongRange && mp.Cfg.ThermostatOn

	for i := range mp.nodeCompute {
		mp.nodeCompute[i] = 0
		mp.critCompute[i] = 0
	}
	statsBefore := m.Stats()
	t0 := s.Now()
	var fftStart, fftEnd, thermoStart, thermoEnd, migStart, migEnd sim.Time

	nodes := mp.tor.Nodes()
	// Per-node completion accounting for the end of the step.
	remainingIntegrate := nodes
	remainingMigrate := nodes
	var afterIntegrate func()
	var afterMigration func()
	var stepEnd sim.Time

	finishStep := func() { stepEnd = s.Now() }

	// ---- Phase: thermostat (after all nodes have integrated). ----
	runThermostat := func(next func()) {
		thermoStart = s.Now()
		// Each node first computes its local kinetic-energy contribution,
		// then the global all-reduce runs, then every node adjusts
		// velocities and positions with the reduced value.
		keReady := nodes
		for n := 0; n < nodes; n++ {
			n := topo.NodeID(n)
			mp.computeCrit(n, trace.GC, "kinetic energy", sim.Dur(mp.atomsAt[n])*mp.Cfg.KEPerAtom, func() {
				keReady--
				if keReady > 0 {
					return
				}
				mp.allred.Run(nil, func(at sim.Time) {
					remainingAdjust := nodes
					for a := 0; a < nodes; a++ {
						a := topo.NodeID(a)
						mp.computeCrit(a, trace.TS, "adjust temperature", mp.Cfg.ThermoAdjust, func() {
							remainingAdjust--
							if remainingAdjust == 0 {
								thermoEnd = s.Now()
								next()
							}
						})
					}
				})
			})
		}
	}

	// ---- Phase: migration. ----
	runMigration := func() {
		migStart = s.Now()
		counts := mp.migrationCounts()
		mp.tor.ForEach(func(c topo.Coord) {
			n := mp.tor.ID(c)
			src := m.Client(packet.Client{Node: n, Kind: packet.Slice0})
			neighbors := mp.tor.Neighbors26(c)
			// Send this node's migrating atoms to deterministic neighbours
			// through the message FIFO (stochastic communication the
			// counted-remote-write paradigm cannot cover).
			for i := 0; i < counts[n]; i++ {
				dst := neighbors[i%len(neighbors)]
				src.Send(&packet.Packet{
					Kind: packet.Message, Dst: packet.Client{Node: mp.tor.ID(dst), Kind: packet.Slice0},
					Multicast: packet.NoMulticast, Counter: packet.NoCounter,
					Bytes: 64, InOrder: true, Tag: "migration",
				})
			}
			// Then the in-order multicast synchronization write to all 26
			// nearest neighbours: it cannot overtake the migration
			// messages, so its arrival proves the neighbour's stream is
			// complete.
			src.Send(&packet.Packet{
				Kind: packet.Write, Multicast: patternID(mcMigBase, mp.tor, c),
				Counter: ctrMigSync, Bytes: 8, InOrder: true, Tag: "migration-sync",
			})
		})
		mp.tor.ForEach(func(c topo.Coord) {
			n := mp.tor.ID(c)
			slice := packet.Client{Node: n, Kind: packet.Slice0}
			expected := uint64(len(mp.tor.Neighbors26(c)))
			mp.waitCum(slice, ctrMigSync, expected, false, func() {
				// All neighbours' streams are complete: drain the FIFO.
				mp.drainFIFO(n, func() {
					mp.compute(n, trace.TS, "migration bookkeeping", mp.Cfg.MigFixed, func() {
						remainingMigrate--
						if remainingMigrate == 0 {
							migEnd = s.Now()
							finishStep()
						}
					})
				})
			})
		})
	}

	afterMigration = func() {
		if migrate {
			runMigration()
		} else {
			finishStep()
		}
	}
	afterIntegrate = func() {
		if thermo {
			runThermostat(afterMigration)
		} else {
			afterMigration()
		}
	}

	// ---- Phase: position multicast (slice 0) and bond positions
	// (slice 1), both at step start. ----
	mp.tor.ForEach(func(c topo.Coord) {
		n := mp.tor.ID(c)
		slice0 := m.Client(packet.Client{Node: n, Kind: packet.Slice0})
		mcid := patternID(mcPosBase, mp.tor, c)
		for i := 0; i < mp.posN; i++ {
			slice0.Send(&packet.Packet{
				Kind: packet.Write, Multicast: mcid, Counter: ctrPos,
				Addr: i * 4, Bytes: mp.Cfg.PosBytes, Tag: "positions",
			})
		}
		if mp.Tracer != nil {
			mp.Tracer.Add(trace.TS, t0, t0.Add(sim.Dur(mp.posN)*m.Model.SliceSendGap), "position send", false)
		}
		slice1 := m.Client(packet.Client{Node: n, Kind: packet.Slice1})
		for i, bi := range mp.bondBySrc[n] {
			b := mp.bonds[bi]
			slice1.Send(&packet.Packet{
				Kind: packet.Write, Dst: packet.Client{Node: b.term, Kind: packet.Slice1},
				Multicast: packet.NoMulticast, Counter: ctrBondPos,
				Addr: 4096 + i*4, Bytes: 32, Tag: "bond-positions",
			})
		}
	})

	// ---- Phase: HTIS range-limited interactions (+ charge spreading on
	// long-range steps). ----
	gridPerNode := mp.Cfg.GridN * mp.Cfg.GridN * mp.Cfg.GridN / nodes
	mp.tor.ForEach(func(c topo.Coord) {
		n := mp.tor.ID(c)
		htis := packet.Client{Node: n, Kind: packet.HTIS}
		expected := uint64(mp.srcCount[n] * mp.posN)
		waitStart := s.Now()
		mp.waitCum(htis, ctrPos, expected, false, func() {
			if mp.Tracer != nil {
				mp.Tracer.Add(trace.HTI, waitStart, s.Now(), "wait for positions", true)
			}
			rangeLimited := func() {
				// Transmission of force results begins as soon as the
				// first ones are available: the computation is split into
				// forceN chunks and one force packet per import source is
				// injected after each chunk, overlapping the remainder of
				// the pair computation with communication.
				cost := sim.Dur(mp.pairsPerNode) * mp.Cfg.HTISPairPs
				chunk := cost / sim.Dur(mp.forceN)
				var doChunk func(i int)
				doChunk = func(i int) {
					if i >= mp.forceN {
						return
					}
					mp.computeCrit(n, trace.HTI, "range-limited interactions", chunk, func() {
						mp.sendForceChunk(n, i, "rl-forces")
						doChunk(i + 1)
					})
				}
				doChunk(0)
			}
			if kind == LongRange {
				// Charge spreading runs first so the FFT can overlap with
				// the range-limited pair computation (Figure 13 shows the
				// charge-spreading band ahead of the range-limited band).
				cost := sim.Dur(gridPerNode) * mp.Cfg.SpreadPerPoint
				mp.computeCrit(n, trace.HTI, "charge spreading", cost, func() {
					h := m.Client(htis)
					for _, dst := range mp.chargeDests[n] {
						for i := 0; i < mp.Cfg.ChargePackets; i++ {
							h.Send(&packet.Packet{
								Kind: packet.Accumulate, Dst: packet.Client{Node: dst, Kind: packet.Accum1},
								Multicast: packet.NoMulticast, Counter: ctrCharge,
								Addr: i * 24, Bytes: 192, Tag: "charges",
							})
						}
					}
					rangeLimited()
				})
			} else {
				rangeLimited()
			}
		})
	})

	// ---- Phase: bond term computation. ----
	mp.tor.ForEach(func(c topo.Coord) {
		n := mp.tor.ID(c)
		slice1 := packet.Client{Node: n, Kind: packet.Slice1}
		expected := uint64(mp.bondCounts.posAt[n])
		mp.waitCum(slice1, ctrBondPos, expected, false, func() {
			cost := sim.Dur(mp.bondCounts.posAt[n]) * mp.Cfg.BondTermPs
			mp.compute(n, trace.GC, "bonded interactions", cost, func() {
				cl := m.Client(slice1)
				for _, bi := range mp.bondByTerm[n] {
					b := mp.bonds[bi]
					cl.Send(&packet.Packet{
						Kind: packet.Accumulate, Dst: packet.Client{Node: b.src, Kind: packet.Accum0},
						Multicast: packet.NoMulticast, Counter: ctrForce,
						Addr: 8192, Bytes: 24, Tag: "bond-forces",
					})
				}
			})
		})
	})

	// ---- Phase (long-range): FFT convolution, then potentials back to
	// the HTIS units for force interpolation. ----
	if kind == LongRange {
		fftReady := nodes
		mp.tor.ForEach(func(c topo.Coord) {
			n := mp.tor.ID(c)
			acc := packet.Client{Node: n, Kind: packet.Accum1}
			expected := uint64(mp.chargeSrcCount[n] * mp.Cfg.ChargePackets)
			mp.waitCum(acc, ctrCharge, expected, true, func() {
				fftReady--
				if fftReady > 0 {
					return
				}
				fftStart = s.Now()
				mp.dist.Convolve(mp.zeroIn, mp.green, func(_ *fft.Grid, at sim.Time) {
					fftEnd = at
					// The distributed FFT's arithmetic counts toward
					// each node's critical-path compute.
					for a := range mp.nodeCompute {
						mp.nodeCompute[a] += mp.dist.ComputePerNode()
						mp.critCompute[a] += mp.dist.ComputePerNode()
					}
					// Potentials multicast to the HTIS units through
					// the same import patterns as positions.
					mp.tor.ForEach(func(cc topo.Coord) {
						nn := mp.tor.ID(cc)
						sl := m.Client(packet.Client{Node: nn, Kind: packet.Slice0})
						for i := 0; i < mp.Cfg.PotPackets; i++ {
							sl.Send(&packet.Packet{
								Kind: packet.Write, Multicast: patternID(mcPosBase, mp.tor, cc),
								Counter: ctrPot, Addr: 16384 + i*24, Bytes: 192, Tag: "potentials",
							})
						}
					})
				})
			})
		})
		// HTIS force interpolation once the potentials are in.
		mp.tor.ForEach(func(c topo.Coord) {
			n := mp.tor.ID(c)
			htis := packet.Client{Node: n, Kind: packet.HTIS}
			expected := uint64(mp.srcCount[n] * mp.Cfg.PotPackets)
			mp.waitCum(htis, ctrPot, expected, false, func() {
				cost := sim.Dur(gridPerNode) * mp.Cfg.InterpPerPoint
				mp.computeCrit(n, trace.HTI, "force interpolation", cost, func() {
					mp.sendForceGroup(n, "lr-forces")
				})
			})
		})
	}

	// ---- Phase: integration (slice 2 waits for all forces, split across
	// the two accumulation memories). ----
	groups := 1
	if kind == LongRange {
		groups = 2 // range-limited plus interpolation force groups
	}
	evenN, oddN := (mp.forceN+1)/2, mp.forceN/2
	mp.tor.ForEach(func(c topo.Coord) {
		n := mp.tor.ID(c)
		acc0 := packet.Client{Node: n, Kind: packet.Accum0}
		acc1 := packet.Client{Node: n, Kind: packet.Accum1}
		exp0 := uint64(groups*mp.impCount[n]*evenN + mp.bondCounts.forceAt[n])
		exp1 := uint64(groups * mp.impCount[n] * oddN)
		waitStart := s.Now()
		mp.waitCum(acc0, ctrForce, exp0, true, func() {
			mp.waitCum(acc1, ctrForce, exp1, true, func() {
				if mp.Tracer != nil {
					mp.Tracer.Add(trace.TS, waitStart, s.Now(), "wait for forces", true)
				}
				cost := sim.Dur(mp.atomsAt[n])*mp.Cfg.IntegratePerAtom + mp.Cfg.StepSoftware
				mp.computeCrit(n, trace.GC, "update positions and velocities", cost, func() {
					remainingIntegrate--
					if remainingIntegrate == 0 {
						afterIntegrate()
					}
				})
			})
		})
	})

	s.Run()
	if stepEnd == 0 {
		panic("mdmap: step never completed (counter expectation mismatch)")
	}

	var maxCompute sim.Dur
	for _, d := range mp.critCompute {
		if d > maxCompute {
			maxCompute = d
		}
	}
	statsAfter := m.Stats()
	total := stepEnd.Sub(t0)
	st := StepTiming{
		Kind:        kind,
		Total:       total,
		Compute:     maxCompute,
		Comm:        total - maxCompute,
		SentPerNode: float64(statsAfter.Sent-statsBefore.Sent) / float64(nodes),
		RecvPerNode: float64(statsAfter.Received-statsBefore.Received) / float64(nodes),
	}
	if fftEnd.Sub(fftStart) > 0 {
		st.FFT = fftEnd.Sub(fftStart)
	}
	if thermoEnd.Sub(thermoStart) > 0 {
		st.Thermo = thermoEnd.Sub(thermoStart)
	}
	if migEnd.Sub(migStart) > 0 {
		st.Migr = migEnd.Sub(migStart)
	}
	return st
}

// sendForceGroup emits one force-return group from node n's HTIS: forceN
// aggregated accumulation packets to every import source, alternating
// between the two accumulation memories to double the drain bandwidth.
func (mp *Mapping) sendForceGroup(n topo.NodeID, tag string) {
	h := mp.M.Client(packet.Client{Node: n, Kind: packet.HTIS})
	bytes := mp.forceBytes()
	for _, src := range mp.importOf[n] {
		for i := 0; i < mp.forceN; i++ {
			kind := packet.Accum0
			if i%2 == 1 {
				kind = packet.Accum1
			}
			h.Send(&packet.Packet{
				Kind: packet.Accumulate, Dst: packet.Client{Node: src, Kind: kind},
				Multicast: packet.NoMulticast, Counter: ctrForce,
				Addr: i * 32, Bytes: bytes, Tag: tag,
			})
		}
	}
}

// sendForceChunk emits the i-th force packet to every import source.
func (mp *Mapping) sendForceChunk(n topo.NodeID, i int, tag string) {
	h := mp.M.Client(packet.Client{Node: n, Kind: packet.HTIS})
	kind := packet.Accum0
	if i%2 == 1 {
		kind = packet.Accum1
	}
	bytes := mp.forceBytes()
	for _, src := range mp.importOf[n] {
		h.Send(&packet.Packet{
			Kind: packet.Accumulate, Dst: packet.Client{Node: src, Kind: kind},
			Multicast: packet.NoMulticast, Counter: ctrForce,
			Addr: i * 32, Bytes: bytes, Tag: tag,
		})
	}
}

// forceBytes is the wire payload of one aggregated force packet: 12 bytes
// (three 4-byte fixed-point quantities) per force record.
func (mp *Mapping) forceBytes() int {
	bytes := mp.Cfg.ForcesPerPacket * 12
	if bytes > packet.MaxPayloadBytes {
		bytes = packet.MaxPayloadBytes
	}
	return bytes
}

// compute charges d of off-critical-path arithmetic to node n and
// schedules fn afterwards, recording a trace span.
func (mp *Mapping) compute(n topo.NodeID, unit trace.Unit, label string, d sim.Dur, fn func()) {
	mp.nodeCompute[n] += d
	s := mp.M.Sim
	start := s.Now()
	s.After(d, sim.Func(func() {
		if mp.Tracer != nil {
			mp.Tracer.Add(unit, start, s.Now(), label, false)
		}
		fn()
	}))
}

// computeCrit is compute for arithmetic on the canonical critical path
// (position import -> HTIS -> force return -> integration -> thermostat):
// the quantity subtracted from the step total to obtain the paper's
// critical-path communication time.
func (mp *Mapping) computeCrit(n topo.NodeID, unit trace.Unit, label string, d sim.Dur, fn func()) {
	mp.critCompute[n] += d
	mp.compute(n, unit, label, d, fn)
}

// waitCum registers a wait on client c's counter ctr for this step's
// additional expected packets on top of the cumulative target.
func (mp *Mapping) waitCum(c packet.Client, ctr packet.CounterID, add uint64, remote bool, fn func()) {
	k := cumKey{c, ctr}
	mp.cum[k] += add
	target := mp.cum[k]
	cl := mp.M.Client(c)
	if remote {
		cl.WaitRemote(ctr, target, fn)
	} else {
		cl.Wait(ctr, target, fn)
	}
}

// drainFIFO pops and processes every queued migration message.
func (mp *Mapping) drainFIFO(n topo.NodeID, done func()) {
	f := mp.M.Client(packet.Client{Node: n, Kind: packet.Slice0}).FIFO()
	var pump func()
	pump = func() {
		if f.Len() == 0 {
			done()
			return
		}
		f.Pop(func(*packet.Packet) {
			mp.compute(n, trace.TS, "process migration", mp.Cfg.MigPerAtom, pump)
		})
	}
	pump()
}

// migrationCounts returns the number of atoms each node migrates this
// phase, from the diffusion model: the per-axis rms displacement over the
// migration interval times the box surface flux.
func (mp *Mapping) migrationCounts() []int {
	interval := mp.Cfg.MigrationInterval
	rms := math.Sqrt(2*mp.Cfg.DiffusionPerStep*float64(interval)) * float64(mp.tor.DimX)
	out := make([]int, mp.tor.Nodes())
	for n, atoms := range mp.atomsAt {
		c := int(float64(atoms) * 3 * rms)
		if c < 1 {
			c = 1 // a handful of atoms always straddles the margins
		}
		if c > atoms {
			c = atoms
		}
		out[n] = c
	}
	return out
}
