// Command mdsim runs a molecular dynamics simulation end to end: the real
// (sequential) MD engine produces physics, while the same workload mapped
// onto the simulated Anton machine produces per-step communication and
// timing measurements.
//
// Usage:
//
//	mdsim [-atoms 23558] [-steps 10] [-torus 8x8x8] [-seed 1]
//	      [-thermostat] [-migrate 8] [-engine-molecules 64] [-workers N]
//	      [-faults PLAN] [-checkpoint-out FILE] [-restore FILE]
//
// mdsim is inherently event-driven: it produces a step-by-step physics
// and timing trajectory, which the closed-form analytic tier cannot
// answer. Analytic step-time queries live in 'antonbench -fidelity
// analytic fastpath'.
//
// A fault plan perturbs the machine simulator with seeded deterministic
// faults, including permanent link/node kills survived by fault-aware
// rerouting and watchdog recovery:
//
//	mdsim -faults 'seed=9,killlink=0:X+@2us,wdog=15us'
//
// -checkpoint-out writes a versioned binary snapshot of the completed
// run. -restore rebuilds the snapshot's configuration, deterministically
// replays it up to the snapshot step — verifying every replayed row, the
// simulated clock, and the MD engine state against the snapshot — and
// then continues to -steps. Killing a run at step N and restoring is
// bit-identical to never having killed it, at any -workers setting.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"

	"anton/internal/checkpoint"
	"anton/internal/fault"
	"anton/internal/machine"
	"anton/internal/md"
	"anton/internal/mdmap"
	"anton/internal/noc"
	"anton/internal/sim"
	"anton/internal/topo"
)

// config is everything that determines the run's trajectory (the
// -workers and -steps flags deliberately excluded: worker count never
// changes a result, and step count only truncates it). A snapshot
// carries the config, making it self-describing.
type config struct {
	atoms      int
	torus      string
	seed       int64
	thermostat bool
	migrate    int
	engineMol  int
	faults     string
}

func (c config) fields() map[string]string {
	return map[string]string{
		"atoms":            strconv.Itoa(c.atoms),
		"torus":            c.torus,
		"seed":             strconv.FormatInt(c.seed, 10),
		"thermostat":       strconv.FormatBool(c.thermostat),
		"migrate":          strconv.Itoa(c.migrate),
		"engine-molecules": strconv.Itoa(c.engineMol),
		"faults":           c.faults,
	}
}

func configFromFields(f map[string]string) (config, error) {
	var c config
	var err error
	get := func(name string) string {
		v, ok := f[name]
		if !ok && err == nil {
			err = fmt.Errorf("snapshot is missing configuration field %q", name)
		}
		return v
	}
	c.atoms, _ = strconv.Atoi(get("atoms"))
	c.torus = get("torus")
	c.seed, _ = strconv.ParseInt(get("seed"), 10, 64)
	c.thermostat, _ = strconv.ParseBool(get("thermostat"))
	c.migrate, _ = strconv.Atoi(get("migrate"))
	c.engineMol, _ = strconv.Atoi(get("engine-molecules"))
	c.faults = get("faults")
	return c, err
}

func main() {
	atoms := flag.Int("atoms", 23558, "atoms in the parallel timing model")
	steps := flag.Int("steps", 10, "time steps to simulate on the machine")
	torusFlag := flag.String("torus", "8x8x8", "machine torus XxYxZ")
	seed := flag.Int64("seed", 1, "workload seed")
	thermostat := flag.Bool("thermostat", true, "enable temperature control")
	migrate := flag.Int("migrate", 8, "migration interval in steps (0 = off)")
	engineMol := flag.Int("engine-molecules", 64, "molecules for the physical engine demo (0 = skip)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines for the MD force kernels (1 = sequential; results are bit-identical for any value)")
	faults := flag.String("faults", "",
		"fault plan for the machine simulator (e.g. seed=9,killlink=0:X+@2us,killnode=5@0ns,wdog=15us)")
	ckptOut := flag.String("checkpoint-out", "",
		"write a versioned snapshot of the completed run to this file")
	restore := flag.String("restore", "",
		"restore from a snapshot: rebuild its configuration, replay (verifying) to its step, then continue to -steps")
	flag.Parse()

	cfg := config{
		atoms: *atoms, torus: *torusFlag, seed: *seed, thermostat: *thermostat,
		migrate: *migrate, engineMol: *engineMol, faults: *faults,
	}
	var snap *checkpoint.State
	if *restore != "" {
		st, err := checkpoint.ReadFile(*restore)
		if err != nil {
			fatal(err)
		}
		if st.Kind != "mdsim" {
			fatal(fmt.Errorf("snapshot %s was written by %q, not mdsim", *restore, st.Kind))
		}
		if int64(*steps) < st.Step {
			fatal(fmt.Errorf("-steps %d is before the snapshot's step %d", *steps, st.Step))
		}
		if cfg, err = configFromFields(st.Fields); err != nil {
			fatal(err)
		}
		snap = st
	}
	if err := run(cfg, *steps, *workers, snap, *ckptOut, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mdsim: %v\n", err)
	os.Exit(1)
}

// engineRow formats one physical-engine progress row.
func engineRow(step int, potential, total, temp float64) string {
	return fmt.Sprintf("%6d %14.4f %14.4f %10.4f", step, potential, total, temp)
}

// stepRow formats one machine-workload step row.
func stepRow(step int, st mdmap.StepTiming) string {
	return fmt.Sprintf("%6d %-14v %9.2fus %9.2fus %7.2fus %7.2fus %7.2fus %8.0f",
		step, st.Kind, st.Total.Us(), st.Comm.Us(), st.FFT.Us(), st.Thermo.Us(), st.Migr.Us(), st.SentPerNode)
}

func run(cfg config, steps, workers int, snap *checkpoint.State, ckptOut string, out io.Writer) error {
	tor, err := topo.ParseTorus(cfg.torus)
	if err != nil {
		return err
	}
	var plan *fault.Plan
	if cfg.faults != "" {
		p, err := fault.ParsePlan(cfg.faults)
		if err != nil {
			return fmt.Errorf("-faults: %v", err)
		}
		if err := p.ValidateTopo(tor.Nodes()); err != nil {
			return err
		}
		plan = &p
	}

	// Every data row goes through emit: printed, recorded for the
	// snapshot, and — when restoring — verified against the snapshot's
	// recorded history so any divergence is detected, not propagated.
	var rows []string
	emit := func(row string) error {
		if snap != nil && len(rows) < len(snap.Rows) && snap.Rows[len(rows)] != row {
			return fmt.Errorf("restore: replay diverged from the snapshot at row %d:\n  snapshot: %q\n  replayed: %q",
				len(rows), snap.Rows[len(rows)], row)
		}
		rows = append(rows, row)
		fmt.Fprintln(out, row)
		return nil
	}

	var floats []float64
	if cfg.engineMol > 0 {
		fmt.Fprintf(out, "=== physical MD engine (%d molecules, sequential) ===\n", cfg.engineMol)
		sys := md.Build(md.Config{Molecules: cfg.engineMol, Temperature: 1.0, Seed: cfg.seed, Workers: workers})
		in := md.NewIntegrator(sys, 0.002)
		in.Thermostat = cfg.thermostat
		in.TargetT = 1.0
		in.LongRangeInterval = 2
		in.ComputeForces()
		fmt.Fprintf(out, "%6s %14s %14s %10s\n", "step", "potential", "total energy", "temp")
		for i := 0; i <= 50; i += 10 {
			if i > 0 {
				in.Run(10)
			}
			if err := emit(engineRow(in.StepCount(), in.E.Potential(), in.TotalEnergy(), sys.Temperature())); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		for _, p := range sys.Pos {
			floats = append(floats, p.X, p.Y, p.Z)
		}
		for _, v := range sys.Vel {
			floats = append(floats, v.X, v.Y, v.Z)
		}
	}
	if snap != nil {
		if len(snap.Floats) != len(floats) {
			return fmt.Errorf("restore: engine state has %d values, snapshot has %d", len(floats), len(snap.Floats))
		}
		for i, v := range floats {
			if math.Float64bits(v) != math.Float64bits(snap.Floats[i]) {
				return fmt.Errorf("restore: engine state value %d diverged: %v vs snapshot %v", i, v, snap.Floats[i])
			}
		}
	}

	fmt.Fprintf(out, "=== %d-atom workload on a %s Anton machine ===\n", cfg.atoms, cfg.torus)
	s := sim.New()
	if plan != nil {
		fault.Attach(s, *plan)
	}
	m := machine.New(s, tor, noc.DefaultModel())
	mcfg := mdmap.DefaultConfig()
	mcfg.Atoms = cfg.atoms
	mcfg.Seed = cfg.seed
	mcfg.ThermostatOn = cfg.thermostat
	mcfg.MigrationInterval = cfg.migrate
	mcfg.Workers = workers
	if tor.DimX < 8 {
		mcfg.GridN = 16
	}
	mp := mdmap.New(s, m, mcfg)
	fmt.Fprintf(out, "%d bond-term deliveries/step, %d position packets/node, ~%d range-limited pairs/node\n\n",
		mp.BondInstances(), mp.PosPackets(), mp.PairsPerNode())
	fmt.Fprintf(out, "%6s %-14s %10s %10s %8s %8s %8s %8s\n",
		"step", "kind", "total", "comm", "fft", "thermo", "migr", "sent/node")
	var sumTotal, sumComm sim.Dur
	for i := 0; i < steps; i++ {
		st := mp.RunStep()
		sumTotal += st.Total
		sumComm += st.Comm
		if err := emit(stepRow(i+1, st)); err != nil {
			return err
		}
		if snap != nil && int64(i+1) == snap.Step && int64(s.Now()) != snap.Clock {
			return fmt.Errorf("restore: replayed clock %d ps at step %d, snapshot recorded %d ps",
				int64(s.Now()), i+1, snap.Clock)
		}
	}
	n := sim.Dur(steps)
	fmt.Fprintf(out, "\naverage: total %.2f us/step, critical-path communication %.2f us/step\n",
		(sumTotal / n).Us(), (sumComm / n).Us())

	if ckptOut != "" {
		st := &checkpoint.State{
			Kind: "mdsim", Step: int64(steps), Clock: int64(s.Now()),
			Fields: cfg.fields(), Rows: rows, Floats: floats,
		}
		if err := st.WriteFile(ckptOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote snapshot %s (step %d, %d rows)\n", ckptOut, steps, len(rows))
	}
	return nil
}
