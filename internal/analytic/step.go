package analytic

import (
	"fmt"
	"math"

	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// StepParams are the per-configuration quantities the step-time model is
// a function of. They are extracted from an mdmap.Mapping — the same
// spatial decomposition, bond program, and fixed packet counts the
// event-driven workload uses — without running the simulator.
type StepParams struct {
	Atoms      int // configured atom count
	PosN       int // position packets per node per step
	ForceN     int // force packets per (HTIS, import source)
	SrcCount   int // max position-multicast fan-in of any HTIS
	ImpCount   int // max import-region size of any node
	MaxAtoms   int // max atoms on any node
	Pairs      int // range-limited pairs per node
	Grid       int // FFT grid points per node
	BondSends  int // max bond position packets sent by any node
	BondTerms  int // max bond positions received by any term node
	BondForces int // max bond force packets expected at any accum
	ForceWire  int // wire bytes of one aggregated force packet
}

// CalibrationLinkStats is the link-occupancy evidence extracted from the
// calibration runs' link counters (one metrics.LinkCounters per link,
// fed by Machine.OnLink): it anchors the contention term's traffic scalar
// to measured wire bytes and bounds the model's validity domain (a
// saturated link means queueing is no longer near-linear in offered
// load, so calibration refuses).
type CalibrationLinkStats struct {
	// MeasuredBytesPerStep: wire bytes serialized per step per node at the
	// high reference, summed over all links.
	MeasuredBytesPerStep float64
	// PredictedBytesPerStep: the closed-form traffic scalar at the high
	// reference, before anchoring. AnchorRatio = Measured/Predicted scales
	// the traffic model into measured-byte units.
	PredictedBytesPerStep float64
	AnchorRatio           float64
	// PeakLinkUtilization: busiest link's occupancy fraction over the high
	// reference run.
	PeakLinkUtilization float64
	// QueuedShare: fraction of packets that found their link busy.
	QueuedShare float64
	// MaxQueueWait: worst head-of-line link wait observed.
	MaxQueueWait sim.Dur
}

// maxLinkUtilization is the validity ceiling for the busiest link at the
// high calibration reference: beyond it, queueing grows super-linearly in
// offered load and the linear contention term is no longer trustworthy.
const maxLinkUtilization = 0.98

// StepModel answers MD step-time queries in closed form for one
// (torus, workload configuration) pair, after a one-time two-point DES
// calibration (see CalibrateStep).
//
// The model is
//
//	T(kind, atoms) = D(kind, params) + Kappa[kind]·B(kind, params) + Resid[kind]
//
// where D sums the derived critical-path terms (the saturated HTIS
// receive port during the position import, the range-limited pair
// arithmetic, the bond-program branch, grid spreading/interpolation, the
// force-return drain, integration, and the thermostat's kinetic-energy,
// all-reduce, and adjustment legs — each a closed form over StepParams
// and the calibrated noc constants), B is the offered link-traffic
// scalar in measured wire bytes (anchored to the calibration runs' link
// occupancy, see CalibrationLinkStats), and Kappa/Resid are fitted so
// the model is exact at both calibration references.
//
// Error-bound contract: exact at the two reference atom counts by
// construction; within the documented 5% of the event simulator for any
// atoms in [LoAtoms, HiAtoms] (enforced by the differential battery);
// refused outside the bracket, where the linear contention term is
// unvalidated.
type StepModel struct {
	Torus topo.Torus
	Cfg   mdmap.Config
	Model noc.Model

	LoAtoms, HiAtoms int

	// Per-kind fitted contention slope (ps of critical-path time per
	// anchored traffic byte), the low-reference residual it is measured
	// from, and the low reference's anchored traffic scalar. The
	// contention term is evaluated as a rounded delta from the low
	// reference so the model reproduces both references to the picosecond.
	Kappa map[mdmap.StepKind]float64
	Resid map[mdmap.StepKind]sim.Dur
	BLo   map[mdmap.StepKind]float64
	// Reference step times at both calibration points (the DES ground
	// truth the fit is pinned to).
	RefLo, RefHi map[mdmap.StepKind]sim.Dur
	// FFTExtent: the distributed convolution's measured extent at the low
	// reference (grid-driven, atoms-independent; load-driven growth is
	// carried by the contention term).
	FFTExtent sim.Dur

	LinkStats CalibrationLinkStats

	newSim func() *sim.Sim
	params map[int]StepParams // cache: atoms -> extracted params
}

// StepOptions tunes CalibrateStep.
type StepOptions struct {
	// NewSim constructs the simulators for the calibration runs; nil means
	// sim.New. The harness passes its worker-pool constructor so fastpath
	// reports stay identical at any -workers.
	NewSim func() *sim.Sim
	// Steps per calibration run (at least one of each step kind must
	// occur); 0 means 4, matching the Table 3 measurement convention.
	Steps int
}

// CalibrateStep builds a StepModel for the given torus and workload
// configuration by running the event simulator at two reference atom
// counts, loAtoms < hiAtoms, and fitting the contention slope and
// residual per step kind. cfg.Atoms is ignored; migration must be
// disabled (the FIFO-driven migration phase is stochastic communication
// the closed-form tier does not model).
func CalibrateStep(tor topo.Torus, cfg mdmap.Config, loAtoms, hiAtoms int, opt StepOptions) (*StepModel, error) {
	if cfg.MigrationInterval != 0 {
		return nil, fmt.Errorf("analytic: step model does not cover migration (MigrationInterval=%d); disable it or use the DES tier", cfg.MigrationInterval)
	}
	if cfg.LongRangeInterval < 1 {
		return nil, fmt.Errorf("analytic: step model requires LongRangeInterval >= 1, got %d", cfg.LongRangeInterval)
	}
	if loAtoms >= hiAtoms || loAtoms <= 0 {
		return nil, fmt.Errorf("analytic: calibration needs 0 < loAtoms < hiAtoms, got %d, %d", loAtoms, hiAtoms)
	}
	newSim := opt.NewSim
	if newSim == nil {
		newSim = sim.New
	}
	steps := opt.Steps
	if steps == 0 {
		steps = 4
	}
	sm := &StepModel{
		Torus: tor, Cfg: cfg, Model: noc.DefaultModel(),
		LoAtoms: loAtoms, HiAtoms: hiAtoms,
		Kappa: make(map[mdmap.StepKind]float64),
		Resid: make(map[mdmap.StepKind]sim.Dur),
		BLo:   make(map[mdmap.StepKind]float64),
		RefLo: make(map[mdmap.StepKind]sim.Dur),
		RefHi: make(map[mdmap.StepKind]sim.Dur),

		newSim: newSim,
		params: make(map[int]StepParams),
	}

	lo, err := sm.reference(loAtoms, steps)
	if err != nil {
		return nil, err
	}
	sm.FFTExtent = lo.fft
	hi, err := sm.reference(hiAtoms, steps)
	if err != nil {
		return nil, err
	}
	sm.RefLo, sm.RefHi = lo.times, hi.times

	// Anchor the traffic scalar to the measured link bytes of the high
	// reference run, and bound the validity domain.
	if hi.stats.PeakLinkUtilization > maxLinkUtilization {
		return nil, fmt.Errorf("analytic: busiest link %.0f%% utilized at the high reference — network saturated, linear contention model refused",
			hi.stats.PeakLinkUtilization*100)
	}
	sm.LinkStats = hi.stats
	anchor := sm.LinkStats.AnchorRatio

	for kind, tHi := range hi.times {
		tLo, ok := lo.times[kind]
		if !ok {
			return nil, fmt.Errorf("analytic: step kind %v observed only at the high reference", kind)
		}
		dLo := sm.derived(kind, lo.params)
		dHi := sm.derived(kind, hi.params)
		bLo := anchor * sm.traffic(kind, lo.params)
		bHi := anchor * sm.traffic(kind, hi.params)
		if bHi <= bLo {
			return nil, fmt.Errorf("analytic: degenerate calibration — offered traffic does not grow between references (%g vs %g)", bLo, bHi)
		}
		rLo, rHi := tLo-dLo, tHi-dHi
		sm.Kappa[kind] = float64(rHi-rLo) / (bHi - bLo)
		sm.Resid[kind] = rLo
		sm.BLo[kind] = bLo
	}
	return sm, nil
}

// reference holds one calibration run's outputs.
type reference struct {
	params StepParams
	times  map[mdmap.StepKind]sim.Dur
	fft    sim.Dur
	stats  CalibrationLinkStats
}

// reference runs the event simulator at the given atom count and
// extracts step times, mapping parameters, and link-occupancy evidence.
// The evidence is counted per link through Machine.OnLink, which sees
// every transfer a recorder's LinkTransfer sees; no packet event is
// logged.
func (sm *StepModel) reference(atoms, steps int) (reference, error) {
	s := sm.newSim()
	m := machine.New(s, sm.Torus, sm.Model)
	links := make([]metrics.LinkCounters, sm.Torus.Nodes()*len(topo.Ports))
	m.OnLink = func(n topo.NodeID, p topo.Port, _ sim.Time, service sim.Dur, wireBytes int, wait sim.Dur) {
		links[int(n)*len(topo.Ports)+topo.PortIndex(p)].Add(service, wireBytes, wait)
	}
	cfg := sm.Cfg
	cfg.Atoms = atoms
	mp := mdmap.New(s, m, cfg)

	ref := reference{times: make(map[mdmap.StepKind]sim.Dur)}
	ref.params = extractParams(mp, atoms)
	sm.params[atoms] = ref.params

	counted := make(map[mdmap.StepKind]int)
	for i := 0; i < steps; i++ {
		st := mp.RunStep()
		ref.times[st.Kind] = st.Total // last of each kind: steady state
		counted[st.Kind]++
		if st.FFT > 0 {
			ref.fft = st.FFT
		}
	}
	if len(ref.times) == 0 {
		return ref, fmt.Errorf("analytic: calibration ran no steps")
	}

	// Link-occupancy statistics: the contention term's measured feed.
	// Each is a sum or a maximum over links, so link order is immaterial.
	var bytes, packets, queued uint64
	var peakBusy, maxWait sim.Dur
	for _, lr := range links {
		bytes += lr.Bytes
		packets += lr.Packets
		queued += lr.Queued
		if lr.Busy > peakBusy {
			peakBusy = lr.Busy
		}
		if lr.MaxWait > maxWait {
			maxWait = lr.MaxWait
		}
	}
	var predicted float64
	for kind, n := range counted {
		predicted += float64(n) * sm.traffic(kind, ref.params)
	}
	nodes := float64(sm.Torus.Nodes())
	stepsRun := float64(steps)
	ref.stats = CalibrationLinkStats{
		MeasuredBytesPerStep:  float64(bytes) / stepsRun / nodes,
		PredictedBytesPerStep: predicted / stepsRun,
		MaxQueueWait:          maxWait,
	}
	if packets > 0 {
		ref.stats.QueuedShare = float64(queued) / float64(packets)
	}
	if total := s.Now().Sub(0); total > 0 {
		ref.stats.PeakLinkUtilization = float64(peakBusy) / float64(total)
	}
	if ref.stats.PredictedBytesPerStep > 0 {
		ref.stats.AnchorRatio = ref.stats.MeasuredBytesPerStep / ref.stats.PredictedBytesPerStep
	} else {
		ref.stats.AnchorRatio = 1
	}
	return ref, nil
}

// extractParams reads the model inputs off a built mapping.
func extractParams(mp *mdmap.Mapping, atoms int) StepParams {
	return StepParams{
		Atoms:      atoms,
		PosN:       mp.PosPackets(),
		ForceN:     mp.ForcePackets(),
		SrcCount:   mp.MaxSrcCount(),
		ImpCount:   mp.MaxImportCount(),
		MaxAtoms:   mp.MaxAtomsPerNode(),
		Pairs:      mp.PairsPerNode(),
		Grid:       mp.GridPerNode(),
		BondSends:  mp.MaxBondSendsBy(),
		BondTerms:  mp.MaxBondTermsAt(),
		BondForces: mp.MaxBondForcesAt(),
		ForceWire:  HeaderedWire(mp.ForceWireBytes()),
	}
}

// HeaderedWire returns payload plus the packet header (unconditionally —
// for payloads above the inline threshold).
func HeaderedWire(payload int) int { return packet.HeaderBytes + payload }

// Params returns the step-model inputs for the given atom count,
// building (and caching) the mapping if needed. This is the only
// per-query cost of a step-time query; no simulator events run.
func (sm *StepModel) Params(atoms int) StepParams {
	if p, ok := sm.params[atoms]; ok {
		return p
	}
	s := sim.New()
	m := machine.New(s, sm.Torus, sm.Model)
	cfg := sm.Cfg
	cfg.Atoms = atoms
	mp := mdmap.New(s, m, cfg)
	p := extractParams(mp, atoms)
	sm.params[atoms] = p
	return p
}

// derived sums the closed-form critical-path terms for one step kind.
func (sm *StepModel) derived(kind mdmap.StepKind, p StepParams) sim.Dur {
	m := &sm.Model
	cfg := sm.Cfg

	posWire := WireBytes(cfg.PosBytes)
	// Position import: the HTIS receive port is saturated (SrcCount
	// gap-paced streams exceed its service rate), so the wait is the
	// port's total service demand.
	satPos := sim.Dur(p.SrcCount*p.PosN) * m.ClientService(packet.HTIS, posWire)
	// Range-limited pair arithmetic (force sends overlap the chunks).
	rlCompute := sim.Dur(p.Pairs) * cfg.HTISPairPs
	rlBranch := satPos + rlCompute

	// Bond branch: position injection pacing at the slice-1 send port,
	// per-term geometry-core arithmetic, force injection pacing, and the
	// accumulation-port drain of the returning forces.
	bondBranch := sim.Dur(p.BondSends)*m.SliceSendGap +
		sim.Dur(p.BondTerms)*(cfg.BondTermPs+m.SliceSendGap) +
		sim.Dur(p.BondForces)*m.ClientService(packet.Accum0, WireBytes(24))

	integrate := sim.Dur(p.MaxAtoms)*cfg.IntegratePerAtom + cfg.StepSoftware

	if kind == mdmap.RangeLimited {
		return maxDur(rlBranch, bondBranch) + integrate
	}

	// Long-range step: charge spreading precedes the range-limited
	// chunks on the HTIS; the FFT path (charges in, convolution,
	// potentials out, interpolation, second force group) runs
	// concurrently and the integration waits for the later branch.
	spread := sim.Dur(p.Grid) * cfg.SpreadPerPoint
	interp := sim.Dur(p.Grid) * cfg.InterpPerPoint
	evenN := sim.Dur((p.ForceN + 1) / 2)
	lrDrain := sim.Dur(p.SrcCount) * evenN * m.ClientService(packet.Accum0, p.ForceWire)
	fftBranch := satPos + spread + interp + lrDrain + sm.FFTExtent
	lrRL := satPos + spread + rlCompute

	// Thermostat: kinetic energy on every node, the dimension-ordered
	// global all-reduce (closed form, exact), and the adjustment.
	thermo := sim.Dur(0)
	if cfg.ThermostatOn {
		a := &Anton{Model: sm.Model, Torus: sm.Torus}
		allred := a.AllReduce(DefaultCollective(32, 2200*sim.Ps, 70*sim.Ns))
		thermo = sim.Dur(p.MaxAtoms)*cfg.KEPerAtom + allred + cfg.ThermoAdjust
	}
	return maxDur(maxDur(lrRL, fftBranch), bondBranch) + integrate + thermo
}

// traffic is the offered link-traffic scalar for one step kind: wire
// bytes per node per step weighted by route length, before anchoring to
// the measured calibration bytes. It only needs to scale correctly with
// the configuration — the anchor ratio and the fitted slope carry the
// units.
func (sm *StepModel) traffic(kind mdmap.StepKind, p StepParams) float64 {
	posWire := float64(WireBytes(sm.Cfg.PosBytes))
	common := float64(p.PosN)*posWire*float64(p.ImpCount-1) + // position multicast tree
		float64(p.BondSends)*float64(WireBytes(32))*2 + // bond positions, ~2 hops
		float64(p.BondTerms)*float64(WireBytes(24))*2 + // bond forces back
		float64(p.ImpCount)*float64(p.ForceN)*float64(p.ForceWire)*1.7 // rl force returns
	if kind == mdmap.RangeLimited {
		return common
	}
	// Long-range adds the second force group and the charge/potential
	// grid halo exchange (atoms-independent).
	const gridHalo = 16 * (192 + 32) * 2
	return common*2 + gridHalo
}

// StepTime returns the modelled total time of one step of the given kind
// at the given atom count. Queries outside the calibration bracket are
// refused: the contention term is only validated within it.
func (sm *StepModel) StepTime(kind mdmap.StepKind, atoms int) (sim.Dur, error) {
	if atoms < sm.LoAtoms || atoms > sm.HiAtoms {
		return 0, fmt.Errorf("analytic: %d atoms outside the calibrated bracket [%d, %d]", atoms, sm.LoAtoms, sm.HiAtoms)
	}
	kappa, ok := sm.Kappa[kind]
	if !ok {
		return 0, fmt.Errorf("analytic: step kind %v was not observed during calibration", kind)
	}
	p := sm.Params(atoms)
	b := sm.LinkStats.AnchorRatio * sm.traffic(kind, p)
	contention := sim.Dur(math.Round(kappa * (b - sm.BLo[kind])))
	return sm.derived(kind, p) + sm.Resid[kind] + contention, nil
}

// AverageStep returns the mean of one range-limited and one long-range
// step — the Table 3 "average time step" convention.
func (sm *StepModel) AverageStep(atoms int) (sim.Dur, error) {
	rl, err := sm.StepTime(mdmap.RangeLimited, atoms)
	if err != nil {
		return 0, err
	}
	lr, err := sm.StepTime(mdmap.LongRange, atoms)
	if err != nil {
		return 0, err
	}
	return (rl + lr) / 2, nil
}

func maxDur(a, b sim.Dur) sim.Dur {
	if a > b {
		return a
	}
	return b
}
