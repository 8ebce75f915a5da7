// Command perfbench is the repository benchmark: three closed-loop
// workloads that drive the simulator and the serving tier through their
// exported functions, check every op, and report end-to-end metrics or,
// in a separate traced run, per-layer metrics. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload dhfr-64 --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero when
// any op or check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run sets its workload up; it
// reports the median, so one slow set-up does not move setup_s.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig6-chain, dhfr-64 or serve-90hit")
	seed := flag.Int64("seed", 1, "workload seed (non-negative)")
	seconds := flag.Float64("seconds", 40, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics of every workload")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	child := flag.Bool("child", false, "internal: the traced part of one workload, run by a traced run")
	flag.StringVar(&commit, "commit", "unknown", "commit the sources came from, recorded in the provenance")
	flag.Parse()

	w, ok := workloads[*name]
	switch {
	case !ok:
		fail("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", "))
	case *seed < 0:
		fail("seed must be non-negative, got %d", *seed)
	case *seconds <= 0:
		fail("seconds must be positive, got %v", *seconds)
	case *traced != 0 && *traced != 1:
		fail("trace must be 0 or 1, got %d", *traced)
	}

	var r result
	switch {
	case *child:
		r = traceOne(w, *seed, *seconds, *out)
	case *traced == 1:
		r = traceAll(*name, *seed, *seconds, *out)
	default:
		r = timed(w, *seed, *seconds)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(b))
	if !r.Correct || r.Failed > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// timed is the untraced run: set the workload up setupRuns times, then
// drive the last instance for the measured seconds.
func timed(w *workload, seed int64, seconds float64) result {
	var setups []float64
	var inst instance
	attempted, failed := 0, 0
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, nil)
		setups = append(setups, time.Since(t0).Seconds())
		attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return result{Attempted: attempted, Failed: 1, Metrics: metrics{}}
		}
	}
	defer inst.close()
	runtime.GC()
	p := &phase{}
	next := 0
	p.run(w, inst, nil, seconds, w.minOps, &next)
	attempted += p.ops
	failed += p.failed
	if err := inst.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		failed++
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		failed++
	}
	pct := tailPercentile(w.minOps)
	wins := windows(p.ops, w.minOps)
	var tails []float64
	for _, win := range wins {
		tails = append(tails, ms(percentile(p.lat[win[0]:win[1]], pct)))
	}
	m := metrics{
		"setup_s":    {median(setups), "s"},
		"ops_per_s":  {p.rate(), "1/s"},
		"p50_ms":     {ms(percentile(p.lat, 50)), "ms"},
		"tail_ms":    {median(tails), "ms"},
		"max_rss_mb": {rss, "MB"},
	}
	prov := provenance(w.name, seed)
	prov["ops"] = p.ops
	prov["tail"] = fmt.Sprintf("median over %d windows of the p%d of %d+ ops (%d+ above it)",
		len(wins), pct, w.minOps, above(pct, w.minOps))
	prov["setup_runs_s"] = setups
	for k, v := range inst.info() {
		prov[k] = v
	}
	printLines(os.Stdout, w.name, prov, m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// traceBlocks is how many untraced and traced blocks a traced run
// alternates, so a change in host speed during the run falls on both
// sides of trace.overhead alike.
const traceBlocks = 5

// traceOne is the traced part of one workload, run in its own process:
// one set-up, then untraced and traced blocks in turn under the CPU
// profiler, half the seconds each. The untraced blocks only give
// trace.overhead its base.
func traceOne(w *workload, seed int64, seconds float64, out string) result {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fail("%v", err)
	}
	tr := newTracer()
	inst, err := w.setup(seed, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
		return result{Attempted: 1, Failed: 1, Metrics: metrics{}}
	}
	defer inst.close()

	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		fail("%v", err)
	}
	runtime.GC()
	if err := pprof.StartCPUProfile(prof); err != nil {
		fail("start CPU profile: %v", err)
	}
	base, p := &phase{}, &phase{}
	next := 0
	block := seconds / 2 / traceBlocks
	loopStart := sampleRuntime()
	for i := 0; i < traceBlocks; i++ {
		base.run(w, inst, nil, block, 1, &next)
		p.run(w, inst, tr, block, 1, &next)
	}
	loop := sampleRuntime().minus(loopStart)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		fail("write CPU profile: %v", err)
	}

	failed := base.failed + p.failed
	m, err := inst.layers(tr, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		failed++
	}
	if err := inst.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		failed++
	}
	p.addRuntime(m)
	// The runtime updates its CPU classes only when a GC cycle ends, so
	// the GC share is taken over all blocks, not summed per block.
	m["gc.cpu_share"] = metric{loop.gcCPUSeconds / loop.totalSeconds, "ratio"}
	m["trace.overhead"] = metric{p.rate()/base.rate() - 1, "ratio"}

	if err := writeSpans(stem+".spans.jsonl", tr.spans); err != nil {
		fail("%v", err)
	}
	printSummary(os.Stdout, w.name, tr.spans)
	prov := provenance(w.name, seed)
	prov["ops"] = base.ops + p.ops
	prov["traced_ops"] = p.ops
	prov["spans"] = stem + ".spans.jsonl"
	prov["cpu_profile"] = stem + ".cpu.pprof"
	for k, v := range inst.info() {
		prov[k] = v
	}
	printLines(os.Stdout, w.name, prov, m)
	return result{Correct: failed == 0, Attempted: 1 + base.ops + p.ops, Failed: failed, Metrics: m}
}

// traceAll runs the traced part of every workload, each in its own
// process with a third of the seconds, and reports their per-layer
// metrics under "<workload>." names, so every traced run prints the same
// metric set whichever workload it was asked for.
func traceAll(asked string, seed int64, seconds float64, out string) result {
	exe, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	all := result{Correct: true, Metrics: metrics{}}
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, "--child", "--commit", commit, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds/3), "--trace", "1", "--out", out)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s printed no result (%v)\n", name, runErr)
			all.Correct = false
			all.Attempted++
			all.Failed++
			continue
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		all.Correct = all.Correct && r.Correct && runErr == nil
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	fmt.Printf("# traced run for %s: per-layer metrics of every workload\n", asked)
	return all
}

// phase is one or more measured blocks of ops: every op timed, checked
// and counted, with the process's allocation and GC work summed over the
// blocks.
type phase struct {
	ops, failed int
	lat         []time.Duration
	wall        time.Duration
	work        runtimeSample
}

func (p *phase) rate() float64 { return float64(p.ops) / p.wall.Seconds() }

// run adds a block that drives inst until seconds have passed and at
// least minOps ops have run. next numbers ops across blocks, so a
// workload that plans its inputs by op index never repeats one.
func (p *phase) run(w *workload, inst instance, tr *tracer, seconds float64, minOps int, next *int) {
	before := sampleRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		if tr != nil {
			tr.op = *next
		}
		lat, err := inst.op(*next, tr)
		*next++
		p.ops++
		p.lat = append(p.lat, lat)
		if err != nil {
			p.failed++
			if p.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", w.name, *next-1, err)
			}
		}
	}
	p.wall += time.Since(start)
	p.work = p.work.plus(sampleRuntime().minus(before))
	if tr != nil {
		tr.op = -1
	}
}

// printLines prints the run's provenance as one JSON line and each
// metric with its unit, ahead of the result line.
func printLines(w *os.File, workload string, prov map[string]any, m metrics) {
	b, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fail("encode provenance: %v", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, string(b))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(bw, "# %s %s = %s %s\n", workload, k, strconv.FormatFloat(m[k].Value, 'g', 6, 64), m[k].Unit)
	}
	bw.Flush()
}
