// Command latency is the ping/ping-pong latency microbenchmark: it
// measures one-way counted-remote-write latency between two nodes of a
// simulated Anton machine, the measurement behind Figures 5 and 6 and
// Table 1.
//
// Usage:
//
//	latency [-torus 8x8x8] [-from 0,0,0] [-to 1,0,0] [-bytes 0] [-sweep] [-workers N] [-faults PLAN] [-trace-out FILE] [-fidelity des|analytic]
//
// A fault plan injects seeded, deterministic faults into the measured
// path, e.g. -faults 'seed=7,corrupt=0.1,retry=50ns' shows the retry
// cost on the measured link.
//
// -fidelity analytic answers from the closed-form fast-path tier
// (internal/analytic) instead of running the event simulator — exact on
// every route by the tier's differential contract, and orders of
// magnitude faster. The analytic tier models a fault-free machine and
// runs no events, so it refuses -faults and -trace-out.
//
// -trace-out writes a chrome://tracing-compatible JSON export of the
// measured run (open it at chrome://tracing or https://ui.perfetto.dev):
// every lifecycle event of the measured packet — injection, per-hop link
// serialization, delivery, counter arm/fire — on its own process/thread
// rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"anton/internal/analytic"
	"anton/internal/fault"
	"anton/internal/harness"
	"anton/internal/machine"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/par"
	"anton/internal/sim"
	"anton/internal/topo"
)

// fidelityGate validates the -fidelity value against the flags the
// analytic tier cannot honour: it models a fault-free machine (no fault
// plans) and runs no events (nothing to trace).
func fidelityGate(fidelity, faults, traceOut string) (string, error) {
	f, err := harness.ParseFidelity(fidelity)
	if err != nil {
		return "", fmt.Errorf("-fidelity: %v", err)
	}
	if err := harness.CheckFaults(f, faults != ""); err != nil {
		return "", err
	}
	if f == harness.FidelityAnalytic && traceOut != "" {
		return "", fmt.Errorf("-fidelity analytic computes the latency in closed form with no event stream to trace; drop -trace-out or use -fidelity des")
	}
	return f, nil
}

// analyticLatency answers the one-way write latency from the closed-form
// tier — exact vs the event simulator by the differential contract.
func analyticLatency(tor topo.Torus, from, to topo.Coord, bytes int) sim.Dur {
	return analytic.NewAnton(tor).WriteLatency(from, to, bytes)
}

// parseNode parses an x,y,z coordinate, which must lie inside tor.
func parseNode(s string, tor topo.Torus) (topo.Coord, error) {
	var v [3]int
	parts := strings.Split(s, ",")
	ok := len(parts) == len(v)
	for i := 0; ok && i < len(v); i++ {
		var err error
		v[i], err = strconv.Atoi(parts[i])
		ok = err == nil
	}
	if !ok {
		return topo.Coord{}, fmt.Errorf("bad coordinate %q (want x,y,z)", s)
	}
	c := topo.C(v[0], v[1], v[2])
	if tor.Wrap(c) != c {
		return c, fmt.Errorf("coordinate %v is outside the %v torus", c, tor)
	}
	return c, nil
}

func measure(tor topo.Torus, from, to topo.Coord, bytes int, plan *fault.Plan, record bool) (sim.Dur, fault.Stats, *metrics.Recorder) {
	s := sim.New()
	if plan != nil {
		fault.Attach(s, *plan)
	}
	m := machine.New(s, tor, noc.DefaultModel())
	if record {
		m.Metrics = metrics.New()
	}
	src := packet.Client{Node: m.Torus.ID(from), Kind: packet.Slice0}
	dst := packet.Client{Node: m.Torus.ID(to), Kind: packet.Slice0}
	var avail sim.Time
	m.Client(dst).Wait(0, 1, func() { avail = s.Now() })
	m.Client(src).Write(dst, 0, 0, bytes)
	s.Run()
	return sim.Dur(avail), m.Faults().Stats(), m.Metrics
}

// config is one validated invocation.
type config struct {
	tor        topo.Torus
	from, to   topo.Coord
	bytes      int
	sweep      bool
	workers    int
	plan       *fault.Plan
	traceOut   string
	analytical bool
}

// parseArgs parses and validates the command line. Every input the
// measurement cannot honour is an error: a malformed or non-positive
// torus, an endpoint outside it, a payload outside the packet's range,
// and a fault plan naming a node the torus does not have.
func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	torusFlag := fs.String("torus", "8x8x8", "torus dimensions XxYxZ")
	fromFlag := fs.String("from", "0,0,0", "source node coordinate")
	toFlag := fs.String("to", "1,0,0", "destination node coordinate")
	bytes := fs.Int("bytes", 0, "payload size (0-256)")
	sweep := fs.Bool("sweep", false, "sweep payload sizes 0..256")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines for the payload sweep (1 = sequential; output is identical for any value)")
	faultsFlag := fs.String("faults", "",
		"fault plan for the measured machine (e.g. seed=7,corrupt=0.1,retry=50ns)")
	traceOut := fs.String("trace-out", "",
		"write a chrome://tracing JSON export of the measured run to this file")
	fidelityFlag := fs.String("fidelity", harness.FidelityDES,
		"simulation tier: des (event-driven) or analytic (closed-form fast path)")
	fs.Parse(args)

	cfg := config{bytes: *bytes, sweep: *sweep, workers: *workers, traceOut: *traceOut}
	fidelity, err := fidelityGate(*fidelityFlag, *faultsFlag, *traceOut)
	if err != nil {
		return cfg, err
	}
	cfg.analytical = fidelity == harness.FidelityAnalytic
	if cfg.tor, err = topo.ParseTorus(*torusFlag); err != nil {
		return cfg, err
	}
	if cfg.from, err = parseNode(*fromFlag, cfg.tor); err != nil {
		return cfg, fmt.Errorf("-from: %v", err)
	}
	if cfg.to, err = parseNode(*toFlag, cfg.tor); err != nil {
		return cfg, fmt.Errorf("-to: %v", err)
	}
	if cfg.bytes < 0 || cfg.bytes > packet.MaxPayloadBytes {
		return cfg, fmt.Errorf("-bytes %d is outside [0,%d]", cfg.bytes, packet.MaxPayloadBytes)
	}
	if *faultsFlag != "" {
		p, err := fault.ParsePlan(*faultsFlag)
		if err == nil {
			err = p.ValidateTopo(cfg.tor.Nodes())
		}
		if err != nil {
			return cfg, err
		}
		cfg.plan = &p
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "latency:", err)
		os.Exit(1)
	}
	tor, from, to, plan := cfg.tor, cfg.from, cfg.to, cfg.plan

	hops := tor.HopsByDim(from, to)
	fmt.Printf("torus %v, %v -> %v (%d hops: %d X, %d Y, %d Z)\n",
		tor, from, to, hops[0]+hops[1]+hops[2], hops[0], hops[1], hops[2])
	if cfg.sweep {
		fmt.Printf("%8s %12s\n", "bytes", "latency (ns)")
		// Each payload size is measured on its own fresh machine, so the
		// sweep points run concurrently and print in index order.
		sizes := []int{0, 8, 16, 32, 64, 128, 192, 256}
		lats := make([]sim.Dur, len(sizes))
		if cfg.analytical {
			for i, b := range sizes {
				lats[i] = analyticLatency(tor, from, to, b)
			}
		} else {
			par.ParFor(par.Workers(cfg.workers), len(sizes), func(i int) {
				lats[i], _, _ = measure(tor, from, to, sizes[i], plan, false)
			})
		}
		for i, b := range sizes {
			fmt.Printf("%8d %12.1f\n", b, lats[i].Ns())
		}
		return
	}
	var lat sim.Dur
	var stats fault.Stats
	var rec *metrics.Recorder
	if cfg.analytical {
		lat = analyticLatency(tor, from, to, cfg.bytes)
	} else {
		lat, stats, rec = measure(tor, from, to, cfg.bytes, plan, cfg.traceOut != "")
	}
	fmt.Printf("one-way software-to-software latency (%dB payload): %.1f ns\n", cfg.bytes, lat.Ns())
	if plan != nil {
		fmt.Printf("faults (plan %v): %v\n", plan, stats)
	}
	if cfg.traceOut != "" {
		data := rec.ChromeTrace()
		if err := os.WriteFile(cfg.traceOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "latency:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", cfg.traceOut, len(data))
	}
}
