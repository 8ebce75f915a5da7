package main

import (
	"fmt"
	"time"

	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/noc"
	"anton/internal/sim"
	"anton/internal/topo"
)

// dhfr-64: the deep-queue throughput case. One op is one range-limited
// plus one long-range MD step, the repeating unit of the paper's DHFR
// benchmark (long-range forces run every second step), mapped onto a
// 4x4x4 machine at DHFR's per-node load.
const (
	// 23,558 atoms on 512 nodes is 46 per node; 64 nodes carry 2,945.
	dhfrAtoms = 2945
	// A 16^3 grid gives 64 grid points per node, as 32^3 does on 512.
	dhfrGridN = 16
	// dhfrWarmOps lets the heap reach its steady size: the first op runs
	// about twice as long as later ones.
	dhfrWarmOps = 1
	// dhfrMinOps gives the tail (p75) ten ops above it.
	dhfrMinOps = 40
)

func init() {
	register(&workload{name: "dhfr-64", minOps: dhfrMinOps, setup: setupDHFR})
}

// dhfrOp is everything an op must reproduce exactly.
type dhfrOp struct {
	rl, lr             sim.Dur
	events, sent, recv uint64
}

// dhfrSeed1 is an op at seed 1. Other seeds check every op against the
// first.
var dhfrSeed1 = dhfrOp{rl: 8_900_800, lr: 18_011_486, events: 843_664, sent: 56_120, recv: 154_680}

type dhfr struct {
	simAcc
	m           *machine.Machine
	mp          *mdmap.Mapping
	want        *dhfrOp
	last        machine.Stats
	build       time.Duration
	buildAllocs uint64
	newMapping  time.Duration
}

func setupDHFR(seed int64, tr *tracer) (instance, error) {
	tr.begin("setup")
	defer tr.end()
	d := &dhfr{}
	if seed == 1 {
		want := dhfrSeed1
		d.want = &want
	}
	d.s = sim.New()
	d.build, d.buildAllocs = build(tr, "machine.New", func() {
		d.m = machine.New(d.s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	})
	cfg := mdmap.DefaultConfig()
	cfg.Atoms = dhfrAtoms
	cfg.GridN = dhfrGridN
	cfg.MigrationInterval = 0
	cfg.Seed = seed
	tr.begin("mdmap.New")
	t0 := time.Now()
	d.mp = mdmap.New(d.s, d.m, cfg)
	d.newMapping = time.Since(t0)
	tr.end()
	d.last = d.m.Stats()
	for i := 0; i < dhfrWarmOps; i++ {
		if _, err := d.op(-1, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, nil
}

func (d *dhfr) op(_ int, tr *tracer) (time.Duration, error) {
	s, m := d.s, d.m
	d.sample(m, tr)
	fired := s.Fired()

	start := time.Now()
	tr.begin("op")
	tr.begin("mdmap.RunStep/range-limited")
	rl := d.mp.RunStep()
	tr.end()
	tr.begin("mdmap.RunStep/long-range")
	lr := d.mp.RunStep()
	tr.end()
	tr.end()
	lat := time.Since(start)

	tr.begin("machine.Stats")
	st := m.Stats()
	tr.end()
	got := dhfrOp{rl: rl.Total, lr: lr.Total, events: s.Fired() - fired,
		sent: st.Sent - d.last.Sent, recv: st.Received - d.last.Received}
	d.last = st
	if tr != nil {
		d.add(got.events, got.sent, got.recv, got.rl+got.lr, lat)
	}
	if rl.Kind != mdmap.RangeLimited || lr.Kind != mdmap.LongRange {
		return lat, fmt.Errorf("step kinds %v, %v; want %v, %v", rl.Kind, lr.Kind, mdmap.RangeLimited, mdmap.LongRange)
	}
	if d.want == nil {
		d.want = &got
	}
	if got != *d.want {
		return lat, fmt.Errorf("op %+v; want %+v", got, *d.want)
	}
	return lat, nil
}

func (d *dhfr) layers(tr *tracer, p *phase) (metrics, error) {
	m := d.simAcc.layers(p)
	buildLayers(m, d.build, d.buildAllocs)
	m["mdmap.new_ms"] = metric{ms(d.newMapping), "ms"}
	m["mdmap.step_rl_ms"] = metric{ms(medianDur(tr.durations("mdmap.RunStep/range-limited"))), "ms"}
	m["mdmap.step_lr_ms"] = metric{ms(medianDur(tr.durations("mdmap.RunStep/long-range"))), "ms"}
	m["mdmap.sim_rl_ps"] = metric{float64(d.want.rl), "ps"}
	m["mdmap.sim_lr_ps"] = metric{float64(d.want.lr), "ps"}
	return m, nil
}

func (d *dhfr) finish() error        { return nil }
func (d *dhfr) info() map[string]any { return nil }
func (d *dhfr) close()               {}
