// Package mdmap maps the dataflow of a molecular dynamics simulation onto
// the simulated Anton machine, implementing the software organization of
// Section IV of the paper:
//
//   - atom positions are multicast to the HTIS units of the import region
//     with a fixed packet count sized for worst-case density fluctuations;
//   - range-limited and interpolation forces return to the home nodes'
//     accumulation memories as counted accumulation packets;
//   - bond terms are statically assigned to nodes (the bond program), with
//     one-atom-per-packet counted remote writes carrying positions to them
//     and accumulation packets carrying forces back;
//   - grid charges flow to accumulation memories, through the distributed
//     dimension-ordered FFT convolution, and back to the HTIS units as
//     potentials;
//   - the thermostat runs on the dimension-ordered global all-reduce;
//   - migration uses the message FIFO plus an in-order multicast
//     synchronization write to all 26 neighbours — the one communication
//     that cannot be a counted remote write.
//
// All packet counts are fixed and precomputed per communication epoch
// (between migrations / bond-program installs), so every receiver
// synchronizes by polling a single counter.
package mdmap

import (
	"fmt"
	"math"
	"math/rand"

	"anton/internal/collective"
	"anton/internal/fft"
	"anton/internal/machine"
	"anton/internal/md"
	"anton/internal/packet"
	"anton/internal/par"
	"anton/internal/sim"
	"anton/internal/topo"
	"anton/internal/trace"
)

// Counter labels used by the mapping.
const (
	ctrPos     packet.CounterID = 0 // positions at HTIS
	ctrBondPos packet.CounterID = 1 // bond positions at slice1
	ctrForce   packet.CounterID = 2 // forces at accum0
	ctrCharge  packet.CounterID = 3 // grid charges at accum1
	ctrPot     packet.CounterID = 4 // potentials at HTIS
	ctrMigSync packet.CounterID = 5 // migration sync writes at slice0
	ctrFFTBase packet.CounterID = 8 // six counters for the distributed FFT
)

// Multicast pattern id bases.
const (
	mcPosBase packet.MulticastID = 0   // position/potential import multicast
	mcMigBase packet.MulticastID = 64  // 26-neighbour migration sync
	mcARBase  packet.MulticastID = 128 // all-reduce ring broadcasts
)

// Config parameterizes the mapping. The zero value is completed by
// DefaultConfig.
type Config struct {
	Atoms             int // target atom count (DHFR: 23,558)
	Seed              int64
	GridN             int // FFT grid side (32 for the production config)
	LongRangeInterval int // long-range forces every k-th step (paper: 2)
	ThermostatOn      bool
	MigrationInterval int // migrate every k-th step; 0 disables migration

	// Workers: goroutines used by the host-side precomputations (the
	// chemical-system pair count, bond aging) and threaded into the
	// underlying md.System. 1 is fully sequential, 0 resolves to
	// GOMAXPROCS; all settings produce bit-identical mappings.
	Workers int

	// ForcesPerPacket: force contributions aggregated per accumulation
	// packet. A force record is three 4-byte fixed-point quantities (the
	// accumulation memories add 4-byte quantities), so up to 21 fit under
	// the 256 B payload cap.
	ForcesPerPacket int
	// PosBytes: wire payload of one atom-position packet (compressed
	// fixed-point coordinates on real Anton).
	PosBytes int
	// PosSlack: the worst-case density-fluctuation margin applied to the
	// fixed position packet count.
	PosSlack float64
	// ChargePackets / PotPackets: fixed grid-data packet counts per
	// destination.
	ChargePackets, PotPackets int

	// Calibrated compute-throughput constants.
	HTISPairPs       sim.Dur // HTIS time per range-limited pair
	BondTermPs       sim.Dur // geometry-core time per bond-term instance
	IntegratePerAtom sim.Dur
	SpreadPerPoint   sim.Dur
	InterpPerPoint   sim.Dur
	KEPerAtom        sim.Dur // kinetic-energy computation per atom
	ThermoAdjust     sim.Dur
	MigFixed         sim.Dur // per-migration bookkeeping
	MigPerAtom       sim.Dur
	StepSoftware     sim.Dur // per-step fixed software overhead

	// Diffusion coefficient in box-edge^2 per step units: drives bond
	// program aging and migration volume.
	DiffusionPerStep float64
}

// DefaultConfig returns the paper's production configuration: the DHFR
// benchmark (23,558 atoms) with long-range interactions and temperature
// control every other step.
func DefaultConfig() Config {
	return Config{
		Atoms:             23558,
		Seed:              1,
		GridN:             32,
		LongRangeInterval: 2,
		ThermostatOn:      true,
		MigrationInterval: 8,
		ForcesPerPacket:   20,
		PosBytes:          16,
		PosSlack:          1.03,
		ChargePackets:     2,
		PotPackets:        2,
		HTISPairPs:        800 * sim.Ps,
		BondTermPs:        50 * sim.Ns,
		IntegratePerAtom:  26 * sim.Ns,
		SpreadPerPoint:    8 * sim.Ns,
		InterpPerPoint:    8 * sim.Ns,
		KEPerAtom:         8 * sim.Ns,
		ThermoAdjust:      400 * sim.Ns,
		MigFixed:          3000 * sim.Ns,
		MigPerAtom:        70 * sim.Ns,
		StepSoftware:      500 * sim.Ns,
		DiffusionPerStep:  9.0e-9,
	}
}

// bondInstance is one (atom, term-node) position delivery: the atom's
// position must reach the term node each step, and a force returns.
type bondInstance struct {
	atom int
	term topo.NodeID // assigned bond-program node
	src  topo.NodeID // atom's current home node (updated by aging/migration)
}

// Mapping is an MD simulation mapped onto a machine.
type Mapping struct {
	M   *machine.Machine
	Cfg Config
	Sys *md.System

	tor          topo.Torus
	boxEdge      float64 // home box edge in system units
	atomHome     []topo.NodeID
	atomsAt      []int // atoms per node
	posN         int   // fixed position packets per node per step
	forceN       int   // fixed force packets per (HTIS, import source) per step
	pairsPerNode int

	importOf [][]topo.NodeID // per node: import region (self + half shell)
	// impCount[n] = len(importOf[n]); srcCount[n] = number of nodes whose
	// import region includes n (the HTIS's position-source count).
	impCount, srcCount []int
	// chargeDests[n]: the FFT halo nodes receiving node n's grid charges;
	// chargeSrcCount[n]: how many nodes send charges to n.
	chargeDests    [][]topo.NodeID
	chargeSrcCount []int

	bonds      []bondInstance
	bondCounts bondCounts
	// drift holds each atom's drift direction, three standard normals,
	// drawn once per mapping the first time the bond program ages
	// (drawDrift).
	drift [][3]float64
	// bondBySrc / bondByTerm index mp.bonds by current source and term.
	bondBySrc, bondByTerm [][]int

	dist   *fft.Dist
	green  *fft.Grid
	zeroIn *fft.Grid
	allred *collective.AllReduce

	// expected cumulative counter targets.
	cum map[cumKey]uint64

	// per-node compute time accumulated during the current step.
	// critCompute counts only the arithmetic on the canonical critical
	// path (HTIS work, FFT, integration, thermostat); bond-term and
	// migration processing runs on other units in parallel and is tracked
	// in nodeCompute only.
	nodeCompute []sim.Dur
	critCompute []sim.Dur

	// aging state
	bondAge   int // steps since the installed bond program's snapshot
	stepIndex int

	Tracer *trace.Tracer
}

type cumKey struct {
	c   packet.Client
	ctr packet.CounterID
}

// New builds the mapping: the synthetic chemical system, the spatial
// decomposition, the multicast patterns, the bond program, and the fixed
// packet counts.
func New(s *sim.Sim, m *machine.Machine, cfg Config) *Mapping {
	d := DefaultConfig()
	if cfg.Atoms == 0 {
		cfg = d
	}
	fillDefaults(&cfg, d)
	tor := m.Torus
	for _, dim := range []int{tor.DimX, tor.DimY, tor.DimZ} {
		if dim > 4 && dim%4 != 0 {
			panic(fmt.Sprintf("mdmap: torus dimension %d unsupported (need <=4 or multiple of 4)", dim))
		}
	}
	sys := md.Build(md.Config{
		Molecules:   cfg.Atoms / 3,
		Temperature: 1.0,
		Seed:        cfg.Seed,
		GridN:       cfg.GridN,
		Workers:     cfg.Workers,
	})
	mp := &Mapping{
		M: m, Cfg: cfg, Sys: sys, tor: tor,
		cum:         make(map[cumKey]uint64),
		nodeCompute: make([]sim.Dur, tor.Nodes()),
		critCompute: make([]sim.Dur, tor.Nodes()),
	}
	mp.boxEdge = sys.Box / float64(tor.DimX)
	mp.assignHomes()
	mp.buildImportSets()
	mp.installPositionMulticast()
	mp.installMigrationMulticast()
	mp.buildBondProgram(0)
	mp.countPairs()
	mp.fixPacketCounts()

	mp.green = fft.NewGrid(cfg.GridN) // timing-only: kernel values irrelevant
	mp.zeroIn = fft.NewGrid(cfg.GridN)
	mp.dist = fft.NewDist(m, cfg.GridN, ctrFFTBase)
	mp.dist.PerPoint = 2 * sim.Ns
	mp.allred = collective.NewAllReduce(m, collective.Config{
		Bytes: 32, Values: 8,
		CtrBase: 32, McBase: mcARBase,
		PerValueAdd:   2200 * sim.Ps,
		RoundOverhead: 70 * sim.Ns,
	})
	return mp
}

func fillDefaults(cfg *Config, d Config) {
	if cfg.GridN == 0 {
		cfg.GridN = d.GridN
	}
	if cfg.LongRangeInterval == 0 {
		cfg.LongRangeInterval = d.LongRangeInterval
	}
	// MigrationInterval is deliberately not defaulted: zero disables
	// migration.
	if cfg.ForcesPerPacket == 0 {
		cfg.ForcesPerPacket = d.ForcesPerPacket
	}
	if cfg.PosSlack == 0 {
		cfg.PosSlack = d.PosSlack
	}
	if cfg.ChargePackets == 0 {
		cfg.ChargePackets = d.ChargePackets
	}
	if cfg.PotPackets == 0 {
		cfg.PotPackets = d.PotPackets
	}
	if cfg.HTISPairPs == 0 {
		cfg.HTISPairPs = d.HTISPairPs
	}
	if cfg.BondTermPs == 0 {
		cfg.BondTermPs = d.BondTermPs
	}
	if cfg.IntegratePerAtom == 0 {
		cfg.IntegratePerAtom = d.IntegratePerAtom
	}
	if cfg.SpreadPerPoint == 0 {
		cfg.SpreadPerPoint = d.SpreadPerPoint
	}
	if cfg.InterpPerPoint == 0 {
		cfg.InterpPerPoint = d.InterpPerPoint
	}
	if cfg.KEPerAtom == 0 {
		cfg.KEPerAtom = d.KEPerAtom
	}
	if cfg.PosBytes == 0 {
		cfg.PosBytes = d.PosBytes
	}
	if cfg.ThermoAdjust == 0 {
		cfg.ThermoAdjust = d.ThermoAdjust
	}
	if cfg.MigFixed == 0 {
		cfg.MigFixed = d.MigFixed
	}
	if cfg.MigPerAtom == 0 {
		cfg.MigPerAtom = d.MigPerAtom
	}
	if cfg.StepSoftware == 0 {
		cfg.StepSoftware = d.StepSoftware
	}
	if cfg.DiffusionPerStep == 0 {
		cfg.DiffusionPerStep = d.DiffusionPerStep
	}
}

// homeOf maps a position to its home node.
func (mp *Mapping) homeOf(p md.Vec3) topo.NodeID {
	c := topo.C(
		boxIdx(p.X, mp.Sys.Box, mp.tor.DimX),
		boxIdx(p.Y, mp.Sys.Box, mp.tor.DimY),
		boxIdx(p.Z, mp.Sys.Box, mp.tor.DimZ),
	)
	return mp.tor.ID(c)
}

func boxIdx(x, box float64, dim int) int {
	i := int(x / box * float64(dim))
	if i >= dim {
		i = dim - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

func (mp *Mapping) assignHomes() {
	mp.atomHome = make([]topo.NodeID, mp.Sys.N())
	mp.atomsAt = make([]int, mp.tor.Nodes())
	for i, p := range mp.Sys.Pos {
		h := mp.homeOf(p)
		mp.atomHome[i] = h
		mp.atomsAt[h]++
	}
}

// buildImportSets computes each node's import region: the node itself plus
// the 13 neighbours of the upper half shell. (The production machines'
// home boxes are comparable to the interaction radius; the paper reports
// positions broadcast to as many as 17 HTIS units, and the half-shell
// method we implement reaches 14.)
func (mp *Mapping) buildImportSets() {
	mp.importOf = make([][]topo.NodeID, mp.tor.Nodes())
	mp.tor.ForEach(func(c topo.Coord) {
		id := mp.tor.ID(c)
		seen := map[topo.NodeID]bool{id: true}
		set := []topo.NodeID{id}
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if !upperHalf(dx, dy, dz) {
						continue
					}
					n := mp.tor.ID(mp.tor.Wrap(topo.C(c.X+dx, c.Y+dy, c.Z+dz)))
					if !seen[n] {
						seen[n] = true
						set = append(set, n)
					}
				}
			}
		}
		mp.importOf[id] = set
	})
	n := mp.tor.Nodes()
	mp.impCount = make([]int, n)
	mp.srcCount = make([]int, n)
	for id, set := range mp.importOf {
		mp.impCount[id] = len(set)
		for _, dst := range set {
			mp.srcCount[dst]++
		}
	}
	// FFT charge halo: the node itself plus the +1 neighbours in each
	// dimension combination (spreading support crosses the upper box
	// boundary).
	mp.chargeDests = make([][]topo.NodeID, n)
	mp.chargeSrcCount = make([]int, n)
	mp.tor.ForEach(func(c topo.Coord) {
		id := mp.tor.ID(c)
		seen := map[topo.NodeID]bool{}
		var dests []topo.NodeID
		for dx := 0; dx <= 1; dx++ {
			for dy := 0; dy <= 1; dy++ {
				for dz := 0; dz <= 1; dz++ {
					d := mp.tor.ID(mp.tor.Wrap(topo.C(c.X+dx, c.Y+dy, c.Z+dz)))
					if !seen[d] {
						seen[d] = true
						dests = append(dests, d)
					}
				}
			}
		}
		mp.chargeDests[id] = dests
		for _, d := range dests {
			mp.chargeSrcCount[d]++
		}
	})
}

func upperHalf(dx, dy, dz int) bool {
	if dx != 0 {
		return dx > 0
	}
	if dy != 0 {
		return dy > 0
	}
	return dz > 0
}

// patternID returns the multicast id for the pattern rooted at coordinate
// c, using a stride-4 residue so that patterns of nearby roots never
// collide within each other's forwarding trees.
func patternID(base packet.MulticastID, tor topo.Torus, c topo.Coord) packet.MulticastID {
	sx, sy, sz := stride(tor.DimX), stride(tor.DimY), stride(tor.DimZ)
	return base + packet.MulticastID((c.X%sx)*sy*sz+(c.Y%sy)*sz+c.Z%sz)
}

func stride(dim int) int {
	if dim < 4 {
		return dim
	}
	return 4
}

// buildTree merges the dimension-ordered routes from src to each dest into
// per-node multicast table entries delivering to client kind at each dest.
func buildTree(tor topo.Torus, src topo.Coord, dests []topo.NodeID, kind packet.ClientKind) map[topo.NodeID]packet.McEntry {
	entries := make(map[topo.NodeID]packet.McEntry)
	ensure := func(n topo.NodeID) packet.McEntry { return entries[n] }
	addOut := func(n topo.NodeID, p topo.Port) {
		e := ensure(n)
		for _, q := range e.Out {
			if q == p {
				return
			}
		}
		e.Out = append(e.Out, p)
		entries[n] = e
	}
	addLocal := func(n topo.NodeID) {
		e := ensure(n)
		for _, k := range e.Local {
			if k == kind {
				return
			}
		}
		e.Local = append(e.Local, kind)
		entries[n] = e
	}
	srcID := tor.ID(src)
	for _, dst := range dests {
		if dst == srcID {
			addLocal(srcID)
			continue
		}
		route := tor.Route(src, tor.Coord(dst))
		for _, step := range route {
			addOut(tor.ID(step.From), step.Port)
		}
		addLocal(dst)
	}
	// The source node always needs an entry, even if it only forwards.
	if _, ok := entries[srcID]; !ok {
		entries[srcID] = packet.McEntry{}
	}
	return entries
}

func (mp *Mapping) installPositionMulticast() {
	mp.tor.ForEach(func(c topo.Coord) {
		id := patternID(mcPosBase, mp.tor, c)
		tree := buildTree(mp.tor, c, mp.importOf[mp.tor.ID(c)], packet.HTIS)
		for n, e := range tree {
			mp.M.SetMulticast(n, id, e)
		}
	})
}

func (mp *Mapping) installMigrationMulticast() {
	installMigrationPatterns(mp.M)
}

func installMigrationPatterns(m *machine.Machine) {
	tor := m.Torus
	tor.ForEach(func(c topo.Coord) {
		id := patternID(mcMigBase, tor, c)
		var dests []topo.NodeID
		for _, nc := range tor.Neighbors26(c) {
			dests = append(dests, tor.ID(nc))
		}
		tree := buildTree(tor, c, dests, packet.Slice0)
		for n, e := range tree {
			m.SetMulticast(n, id, e)
		}
	})
}

// MeasureMigrationSync installs the 26-neighbour synchronization multicast
// patterns on a fresh machine and measures the migration synchronization
// step in isolation: every node simultaneously issues its in-order
// multicast write, and the result is the time until the last node has
// observed all of its neighbours' writes — the paper reports 0.56 us.
func MeasureMigrationSync(m *machine.Machine) sim.Dur {
	installMigrationPatterns(m)
	tor := m.Torus
	start := m.Sim.Now()
	var last sim.Time
	tor.ForEach(func(c topo.Coord) {
		n := tor.ID(c)
		expected := uint64(len(tor.Neighbors26(c)))
		m.Client(packet.Client{Node: n, Kind: packet.Slice0}).Wait(ctrMigSync, expected, func() {
			last = max(last, m.Sim.Now())
		})
	})
	tor.ForEach(func(c topo.Coord) {
		m.Client(packet.Client{Node: tor.ID(c), Kind: packet.Slice0}).Send(&packet.Packet{
			Kind: packet.Write, Multicast: patternID(mcMigBase, tor, c),
			Counter: ctrMigSync, Bytes: 8, InOrder: true, Tag: "migration-sync",
		})
	})
	m.Sim.Run()
	return last.Sub(start)
}

// buildBondProgram assigns every distinct (atom, bond-term) pair to a
// node. age is the staleness of the position snapshot used for the
// assignment, in steps (the paper installs programs that are 120,000
// steps out of date, since regeneration runs in parallel with the
// simulation).
func (mp *Mapping) buildBondProgram(age int) {
	sys := mp.Sys
	if age != 0 {
		mp.drawDrift()
	}
	// The assignment places each term on the home node of its first atom
	// at snapshot time.
	snapshot := func(atom int) topo.NodeID {
		if age == 0 {
			return mp.atomHome[atom]
		}
		return mp.displacedHome(atom, age)
	}
	type pair struct {
		atom int
		term topo.NodeID
	}
	seen := make(map[pair]bool)
	mp.bonds = mp.bonds[:0]
	add := func(term topo.NodeID, atoms ...int) {
		for _, a := range atoms {
			p := pair{a, term}
			if seen[p] {
				continue
			}
			seen[p] = true
			mp.bonds = append(mp.bonds, bondInstance{atom: a, term: term, src: mp.atomHome[a]})
		}
	}
	for _, b := range sys.Bonds {
		add(snapshot(b.I), b.I, b.J)
	}
	for _, a := range sys.Angles {
		add(snapshot(a.I), a.I, a.J, a.K)
	}
	mp.bondAge = 0
	mp.recountBondExpectations()
}

// drawDrift draws every atom's drift direction, once per mapping: three
// standard normals from a source seeded by the mapping seed and the atom.
// Each atom's draws land in its own slot, so they run on the worker pool.
func (mp *Mapping) drawDrift() {
	if mp.drift != nil {
		return
	}
	mp.drift = make([][3]float64, len(mp.Sys.Pos))
	par.ParFor(par.Workers(mp.Cfg.Workers), len(mp.drift), func(atom int) {
		rng := rand.New(rand.NewSource(mp.Cfg.Seed*1_000_003 + int64(atom)))
		mp.drift[atom] = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	})
}

// displacedHome returns the home node of atom after a random-walk
// displacement of age steps. Each atom drifts along a fixed random
// direction (drawDrift, which must have run) whose magnitude grows as
// sqrt(age), so the aging curves are smooth and monotone rather than
// redrawn per sample.
func (mp *Mapping) displacedHome(atom, age int) topo.NodeID {
	d := &mp.drift[atom]
	std := math.Sqrt(2*mp.Cfg.DiffusionPerStep*float64(age)) * mp.Sys.Box
	p := mp.Sys.Pos[atom]
	p.X = wrapF(p.X+d[0]*std, mp.Sys.Box)
	p.Y = wrapF(p.Y+d[1]*std, mp.Sys.Box)
	p.Z = wrapF(p.Z+d[2]*std, mp.Sys.Box)
	return mp.homeOf(p)
}

func wrapF(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// RegenerateBondProgram installs a fresh bond program derived from a
// position snapshot lag steps old: regeneration runs in parallel with the
// simulation, so a program is about one regeneration period out of date
// when installed (the paper regenerates every 100,000-200,000 steps).
// Receiver packet counts are recomputed at installation; between installs
// the communication pattern is fixed, keeping counted remote writes valid.
func (mp *Mapping) RegenerateBondProgram(lag int) { mp.buildBondProgram(lag) }

// SetBondAge models the system having evolved for age steps since the
// installed bond program's position snapshot: each atom's current home
// node is re-drawn from the diffusion model while term assignments stay
// fixed, so bond communication distances grow (Figure 11's mechanism).
func (mp *Mapping) SetBondAge(age int) {
	mp.drawDrift()
	// Each bond's displaced home is an independent pure computation with a
	// disjoint write, so the re-draw runs on the worker pool.
	par.ParFor(par.Workers(mp.Cfg.Workers), len(mp.bonds), func(i int) {
		mp.bonds[i].src = mp.displacedHome(mp.bonds[i].atom, age)
	})
	mp.bondAge = age
	mp.recountBondExpectations()
}

// Expected bond packet counts, recomputed whenever sources or assignments
// change (migration or bond-program installation).
type bondCounts struct {
	posAt   []int // per node: bond positions expected at slice1
	forceAt []int // per node: bond force packets expected at accum0
	sendsBy []int // per node: bond position packets sent
}

func (mp *Mapping) recountBondExpectations() {
	n := mp.tor.Nodes()
	bc := bondCounts{
		posAt:   make([]int, n),
		forceAt: make([]int, n),
		sendsBy: make([]int, n),
	}
	for _, b := range mp.bonds {
		bc.posAt[b.term]++
		bc.forceAt[b.src]++
		bc.sendsBy[b.src]++
	}
	mp.bondCounts = bc
	mp.bondBySrc = make([][]int, n)
	mp.bondByTerm = make([][]int, n)
	for i, b := range mp.bonds {
		mp.bondBySrc[b.src] = append(mp.bondBySrc[b.src], i)
		mp.bondByTerm[b.term] = append(mp.bondByTerm[b.term], i)
	}
}

// countPairs estimates the per-node range-limited pair workload from the
// actual chemical system.
func (mp *Mapping) countPairs() {
	total := mp.Sys.PairCountWithinCutoff()
	mp.pairsPerNode = total/mp.tor.Nodes() + 1
}

// fixPacketCounts freezes the fixed per-step packet counts: the position
// count is padded for worst-case density fluctuations, and the force
// count follows from it and the aggregation factor.
func (mp *Mapping) fixPacketCounts() {
	maxAtoms := 0
	for _, n := range mp.atomsAt {
		if n > maxAtoms {
			maxAtoms = n
		}
	}
	mp.posN = int(math.Ceil(float64(maxAtoms) * mp.Cfg.PosSlack))
	if mp.posN < 1 {
		mp.posN = 1
	}
	mp.forceN = (mp.posN + mp.Cfg.ForcesPerPacket - 1) / mp.Cfg.ForcesPerPacket
}

// PosPackets returns the fixed per-node position packet count.
func (mp *Mapping) PosPackets() int { return mp.posN }

// ForcePackets returns the fixed per-(HTIS, import source) force packet
// count per step.
func (mp *Mapping) ForcePackets() int { return mp.forceN }

// MaxAtomsPerNode returns the largest per-node atom count of the current
// decomposition.
func (mp *Mapping) MaxAtomsPerNode() int {
	max := 0
	for _, n := range mp.atomsAt {
		if n > max {
			max = n
		}
	}
	return max
}

// MaxSrcCount returns the largest position-source count of any HTIS: the
// fan-in of the position multicast.
func (mp *Mapping) MaxSrcCount() int {
	max := 0
	for _, n := range mp.srcCount {
		if n > max {
			max = n
		}
	}
	return max
}

// MaxImportCount returns the largest import-region size of any node: the
// fan-out of the position multicast and of the force returns.
func (mp *Mapping) MaxImportCount() int {
	max := 0
	for _, n := range mp.impCount {
		if n > max {
			max = n
		}
	}
	return max
}

// GridPerNode returns the FFT grid points owned by each node.
func (mp *Mapping) GridPerNode() int {
	return mp.Cfg.GridN * mp.Cfg.GridN * mp.Cfg.GridN / mp.tor.Nodes()
}

// ForceWireBytes returns the wire payload of one aggregated force packet.
func (mp *Mapping) ForceWireBytes() int { return mp.forceBytes() }

// MaxBondTermsAt returns the largest per-node bond-position count: the
// bond-program instances whose term node must receive a position each
// step, maximized over nodes.
func (mp *Mapping) MaxBondTermsAt() int { return maxInt(mp.bondCounts.posAt) }

// MaxBondSendsBy returns the largest per-node count of bond position
// packets sent.
func (mp *Mapping) MaxBondSendsBy() int { return maxInt(mp.bondCounts.sendsBy) }

// MaxBondForcesAt returns the largest per-node count of bond force
// packets expected back at the accumulation memory.
func (mp *Mapping) MaxBondForcesAt() int { return maxInt(mp.bondCounts.forceAt) }

func maxInt(xs []int) int {
	max := 0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// ImportSet returns node n's import region.
func (mp *Mapping) ImportSet(n topo.NodeID) []topo.NodeID { return mp.importOf[n] }

// PairsPerNode returns the estimated range-limited pairs per node.
func (mp *Mapping) PairsPerNode() int { return mp.pairsPerNode }

// BondInstances returns the number of (atom, term-node) deliveries per
// step.
func (mp *Mapping) BondInstances() int { return len(mp.bonds) }

// MeanBondHops returns the mean torus hop count of bond position packets
// under the current assignment — the quantity bond-program regeneration
// keeps small.
func (mp *Mapping) MeanBondHops() float64 {
	if len(mp.bonds) == 0 {
		return 0
	}
	total := 0
	for _, b := range mp.bonds {
		total += mp.tor.Hops(mp.tor.Coord(b.src), mp.tor.Coord(b.term))
	}
	return float64(total) / float64(len(mp.bonds))
}
