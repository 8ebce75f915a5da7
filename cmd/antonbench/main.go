// Command antonbench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	antonbench [-quick] [-workers N] [-faults PLAN] [-fidelity des|analytic] list
//	antonbench [-quick] [-workers N] [-faults PLAN] <experiment-id> [...]
//	antonbench [-quick] [-workers N] [-faults PLAN] all
//	antonbench [-quick] [-bench-out BENCH_metrics.json] [-trace-out trace.json] metrics
//	antonbench [-checkpoint-out snap] [-restore snap] <experiment-id> [...]
//
// A fault plan perturbs every experiment's simulators with seeded,
// deterministic faults, including permanent link/node kills:
//
//	antonbench -faults 'seed=42,corrupt=1e-3,retry=50ns' fig5
//	antonbench -faults 'seed=9,killlink=0:X+@2us,wdog=15us' killsweep
//
// -checkpoint-out rewrites a versioned snapshot after each experiment
// completes, so a killed run loses at most the experiment in flight.
// -restore re-prints the snapshot's completed reports (verifying the
// -quick and -faults settings match) and runs only the remainder.
//
// -fidelity selects the simulation tier: des (the default) answers every
// query on the event-driven simulator; analytic answers from the
// closed-form fast-path tier (internal/analytic) for the experiments
// that support it (currently fastpath). The analytic tier models a
// fault-free machine, so it refuses -faults, and event-driven-only
// experiments refuse to run at analytic fidelity.
//
// The metrics experiment renders the measured-latency observability
// report; alongside it, -bench-out writes the machine-readable
// BENCH_metrics.json payload and -trace-out a chrome://tracing-
// compatible JSON export (open it at chrome://tracing or
// https://ui.perfetto.dev). Both files are byte-deterministic at any
// -workers setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"anton/internal/checkpoint"
	"anton/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "reduce sampling density of the expensive experiments")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines for experiment sweeps and MD set-up (1 = sequential; output is identical for any value)")
	faults := flag.String("faults", "",
		"fault plan applied to every experiment (e.g. seed=42,corrupt=1e-3,retry=50ns,killlink=0:X+@2us,wdog=15us)")
	benchOut := flag.String("bench-out", "",
		"write the metrics experiment's machine-readable payload (BENCH_metrics.json) to this file")
	traceOut := flag.String("trace-out", "",
		"write the metrics experiment's chrome://tracing JSON export to this file")
	ckptOut := flag.String("checkpoint-out", "",
		"rewrite a snapshot of the completed experiment reports after each one finishes")
	restore := flag.String("restore", "",
		"restore completed experiment reports from a snapshot; only the remainder is re-run")
	fidelityFlag := flag.String("fidelity", harness.FidelityDES,
		"simulation tier: des (event-driven) or analytic (closed-form fast path; fastpath only)")
	flag.Parse()
	args := flag.Args()
	list := len(args) == 0 || args[0] == "list"
	var ids []string
	switch {
	case list:
	case args[0] == "all":
		// At analytic fidelity, "all" means every analytic-capable
		// experiment; the event-driven-only ones are skipped rather than
		// refused.
		for _, e := range harness.Experiments() {
			if e.Check(*fidelityFlag, false) == nil {
				ids = append(ids, e.ID)
			}
		}
	default:
		ids = args
	}
	sess, err := configure(*workers, *fidelityFlag, *faults, ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "antonbench: %v\n", err)
		os.Exit(1)
	}
	if list {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nrun with: antonbench [-quick] <id> [...] | all")
		return
	}

	// A snapshot carries the settings that determine report content plus
	// one "id\x00report" row per completed experiment, rewritten after
	// each finishes so a killed run resumes where it left off.
	fields := map[string]string{
		"quick":    strconv.FormatBool(*quick),
		"faults":   *faults,
		"fidelity": sess.Fidelity,
	}
	done := map[string]string{}
	var rows []string
	if *restore != "" {
		st, err := checkpoint.ReadFile(*restore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "antonbench: %v\n", err)
			os.Exit(1)
		}
		if st.Kind != "antonbench" {
			fmt.Fprintf(os.Stderr, "antonbench: snapshot %s was written by %q, not antonbench\n", *restore, st.Kind)
			os.Exit(1)
		}
		for k, v := range fields {
			if sv := st.Field(k); sv != v {
				fmt.Fprintf(os.Stderr, "antonbench: snapshot was taken with -%s=%q, this run has %q\n", k, sv, v)
				os.Exit(1)
			}
		}
		for _, r := range st.Rows {
			id, report, ok := strings.Cut(r, "\x00")
			if !ok {
				fmt.Fprintf(os.Stderr, "antonbench: malformed snapshot row\n")
				os.Exit(1)
			}
			done[id] = report
			rows = append(rows, r)
		}
	}
	snapshot := func() {
		if *ckptOut == "" {
			return
		}
		st := &checkpoint.State{
			Kind: "antonbench", Step: int64(len(rows)), Fields: fields, Rows: rows,
		}
		if err := st.WriteFile(*ckptOut); err != nil {
			fmt.Fprintf(os.Stderr, "antonbench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, id := range ids {
		e, ok := harness.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "antonbench: unknown experiment %q (try: antonbench list)\n", id)
			os.Exit(1)
		}
		if report, ok := done[id]; ok {
			fmt.Println(report)
			fmt.Printf("[%s restored from snapshot]\n\n", e.ID)
			continue
		}
		start := time.Now()
		var report string
		if e.HasArtifacts() && (*benchOut != "" || *traceOut != "") {
			// Experiments with machine-readable artifacts beyond the report
			// (currently metrics) run once and write everything asked for.
			a := e.ArtifactsWith(sess, *quick)
			report = a.Report
			fmt.Println(report)
			writeArtifact(*benchOut, a.BenchJSON)
			writeArtifact(*traceOut, a.Trace)
		} else {
			report = e.RunWith(sess, *quick)
			fmt.Println(report)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
		done[id] = report
		rows = append(rows, id+"\x00"+report)
		snapshot()
	}
}

// configure builds the run's session from the -workers, -fidelity and
// -faults flags and applies the harness's refusals to every requested
// experiment before anything runs: the analytic tier answers neither
// event-driven-only experiments nor fault plans, and a plan may name
// nothing beyond the 512-node flagship.
func configure(workers int, fidelity, faults string, ids []string) (*harness.Session, error) {
	f, err := harness.ParseFidelity(fidelity)
	if err != nil {
		return nil, fmt.Errorf("-fidelity: %v", err)
	}
	for _, id := range ids {
		if e, ok := harness.Lookup(id); ok {
			if err := e.Check(f, faults != ""); err != nil {
				return nil, err
			}
		}
	}
	sess := &harness.Session{Workers: workers, Fidelity: f}
	if faults != "" {
		if sess.Faults, err = harness.ParsePlan(faults); err != nil {
			return nil, fmt.Errorf("-faults: %v", err)
		}
	}
	return sess, nil
}

func writeArtifact(path string, data []byte) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "antonbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
}
