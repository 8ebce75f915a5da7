// Command benchgate is the event-kernel perf-trajectory gate. It times
// the event kernel on the shared benchmark workloads
// (harness.KernelBenchmarks), then compares host wall time per operation
// against the committed baseline BENCH_pdes.json and exits nonzero on a
// regression beyond the tolerance.
//
// Usage:
//
//	benchgate [-baseline BENCH_pdes.json] [-tolerance 0.15]
//	          [-benchtime 1s] [-out fresh.json] [-update]
//
// The committed baseline pins two things with different strictness:
//
//   - events: the number of simulation events each workload fires. This
//     is a pure function of the model — identical on every host — so any
//     mismatch fails the gate exactly. A deliberate model change updates
//     it via -update.
//   - wall_ns_per_op: host wall time, inherently machine- and
//     load-dependent, gated with a relative tolerance (default 0.15,
//     overridable by the BENCH_TOLERANCE environment variable — CI
//     runners with noisy neighbours set it looser).
//
// -update rewrites the baseline from the fresh measurements instead of
// comparing, which is how both deliberate perf trajectory changes and
// model changes land.
//
// The command also gates the analytic fast-path tier against
// BENCH_analytic.json: each workload answers a closed-form query batch
// (harness.AnalyticBenchmarks), and the gate pins the answer checksum
// exactly — the committed artifact is a machine-readable fingerprint of
// the calibrated model — and requires the per-query speedup over one
// equivalent DES run to stay above the -min-speedup floor (default
// 1000x, the fastpath experiment's acceptance contract). -update
// rewrites both baselines.
//
// Finally it gates the serving tier against BENCH_serve.json: the
// committed deterministic load mix is replayed against an in-process
// antonserve instance, the response checksum and cache accounting are
// pinned exactly, and the client-observed p50/p99/throughput gated
// within -serve-tolerance (default 0.50, overridable by the
// SERVE_TOLERANCE environment variable). -update rewrites this
// baseline too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"anton/internal/harness"
	"anton/internal/serve"
)

// benchSchema versions the BENCH_pdes.json layout.
const benchSchema = "anton-bench/v1"

// analyticSchema versions the BENCH_analytic.json layout.
const analyticSchema = "anton-analytic/v1"

// Result is one workload measurement.
type Result struct {
	Name         string  `json:"name"`
	WallNsPerOp  int64   `json:"wall_ns_per_op"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// File is the BENCH_pdes.json payload.
type File struct {
	Schema  string   `json:"schema"`
	Results []Result `json:"results"`
}

// AnalyticResult is one analytic fast-path workload measurement.
type AnalyticResult struct {
	Name string `json:"name"`
	// Queries is the number of closed-form queries per batch and
	// ChecksumPs the sum of their answers in picoseconds — both pure
	// functions of the model, gated exactly (the fit fingerprint).
	Queries    int   `json:"queries"`
	ChecksumPs int64 `json:"checksum_ps"`
	// Wall-time measurements, machine-dependent: recorded for the record,
	// only the speedup floor is gated.
	AnalyticNsPerQuery float64 `json:"analytic_ns_per_query"`
	DESNsPerRun        int64   `json:"des_ns_per_run"`
	Speedup            float64 `json:"speedup"`
	QueriesPerSec      float64 `json:"queries_per_sec"`
}

// AnalyticFile is the BENCH_analytic.json payload.
type AnalyticFile struct {
	Schema  string           `json:"schema"`
	Results []AnalyticResult `json:"results"`
}

func main() {
	baseline := flag.String("baseline", "BENCH_pdes.json", "committed baseline to compare against (and rewrite with -update)")
	tolerance := flag.Float64("tolerance", defaultTolerance(), "relative wall-time regression that fails the gate (BENCH_TOLERANCE env overrides the default)")
	benchtime := flag.String("benchtime", "1s", "minimum measurement time per workload")
	repeat := flag.Int("repeat", 3, "measurements per point; the minimum wall time is kept (noise robustness)")
	out := flag.String("out", "", "also write the fresh measurements to this file")
	update := flag.Bool("update", false, "rewrite the baselines from the fresh measurements instead of comparing")
	analyticBaseline := flag.String("analytic-baseline", "BENCH_analytic.json",
		"committed analytic fast-path baseline (empty = skip the analytic gate)")
	analyticOut := flag.String("analytic-out", "", "also write the fresh analytic measurements to this file")
	minSpeedup := flag.Float64("min-speedup", 1000,
		"minimum analytic-vs-DES per-query speedup that passes the analytic gate")
	serveBaseline := flag.String("serve-baseline", "BENCH_serve.json",
		"committed serving-tier baseline (empty = skip the serve gate)")
	serveOut := flag.String("serve-out", "", "also write the fresh serve measurements to this file")
	serveTolerance := flag.Float64("serve-tolerance", defaultServeTolerance(),
		"relative latency/throughput regression that fails the serve gate (SERVE_TOLERANCE env overrides the default)")
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatalf("-benchtime %q: %v", *benchtime, err)
	}
	if *repeat < 1 {
		fatalf("-repeat must be at least 1")
	}

	fresh := measure(*repeat)
	if *out != "" {
		if err := writeFile(*out, fresh); err != nil {
			fatalf("%v", err)
		}
	}
	var freshA AnalyticFile
	if *analyticBaseline != "" {
		freshA = measureAnalytic(*repeat)
		if *analyticOut != "" {
			if err := writeAnalyticFile(*analyticOut, freshA); err != nil {
				fatalf("%v", err)
			}
		}
	}
	// The serve gate replays the committed load config (or the default
	// when creating the baseline) against an in-process server.
	var freshS, baseS serve.BenchFile
	if *serveBaseline != "" {
		cfg := serve.LoadConfig{Requests: 200, Clients: 8}
		var seed uint64 = 1
		if !*update {
			var err error
			baseS, err = readServeFile(*serveBaseline)
			if err != nil {
				fatalf("%v (run with -update to create the baseline)", err)
			}
			cfg.Requests, cfg.Clients, seed = baseS.Result.Requests, baseS.Result.Clients, baseS.Seed
		}
		freshS = measureServe(seed, cfg)
		if *serveOut != "" {
			if err := writeServeFile(*serveOut, freshS); err != nil {
				fatalf("%v", err)
			}
		}
	}
	if *update {
		if err := writeFile(*baseline, fresh); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("benchgate: wrote baseline %s (%d results)\n", *baseline, len(fresh.Results))
		if *analyticBaseline != "" {
			if err := writeAnalyticFile(*analyticBaseline, freshA); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("benchgate: wrote baseline %s (%d results)\n", *analyticBaseline, len(freshA.Results))
		}
		if *serveBaseline != "" {
			if err := writeServeFile(*serveBaseline, freshS); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("benchgate: wrote baseline %s\n", *serveBaseline)
		}
		return
	}

	base, err := readFile(*baseline)
	if err != nil {
		fatalf("%v (run with -update to create the baseline)", err)
	}
	ok := compare(base, fresh, *tolerance)
	if *analyticBaseline != "" {
		baseA, err := readAnalyticFile(*analyticBaseline)
		if err != nil {
			fatalf("%v (run with -update to create the baseline)", err)
		}
		if !compareAnalytic(baseA, freshA, *minSpeedup) {
			ok = false
		}
	}
	if *serveBaseline != "" {
		if !serve.CompareBench(baseS, freshS, *serveTolerance) {
			ok = false
		}
	}
	if ok {
		fmt.Println("benchgate: PASS")
		return
	}
	os.Exit(1)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}

// defaultServeTolerance is 0.50 unless the SERVE_TOLERANCE environment
// variable overrides it. Looser than the kernel gate: an end-to-end HTTP
// load run sees scheduler and network-stack noise the event kernel
// does not.
func defaultServeTolerance() float64 {
	if v := os.Getenv("SERVE_TOLERANCE"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t < 0 {
			fatalf("SERVE_TOLERANCE=%q is not a non-negative number", v)
		}
		return t
	}
	return 0.50
}

// measureServe runs the committed load mix against an in-process server
// on a loopback listener (no external moving parts) and packages the
// result as a BENCH_serve.json payload.
func measureServe(seed uint64, cfg serve.LoadConfig) serve.BenchFile {
	srv, err := serve.New(serve.Config{Sched: serve.SchedConfig{DESWorkers: 2, AnalyticWorkers: 1}})
	if err != nil {
		fatalf("serve: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	cfg.Seed = seed
	st, err := serve.RunLoad(ts.URL+"/api/v1", nil, cfg)
	if err != nil {
		fatalf("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchgate: serve %d requests  p50 %.2f ms  p99 %.2f ms  %.0f req/s  checksum %s\n",
		st.Requests, st.P50Ms, st.P99Ms, st.RPS, st.Checksum)
	return serve.BenchFile{Schema: serve.BenchSchema, Seed: seed, Result: st}
}

func readServeFile(path string) (serve.BenchFile, error) {
	var f serve.BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != serve.BenchSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, serve.BenchSchema)
	}
	return f, nil
}

func writeServeFile(path string, f serve.BenchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// defaultTolerance is 0.15 unless the BENCH_TOLERANCE environment
// variable overrides it.
func defaultTolerance() float64 {
	if v := os.Getenv("BENCH_TOLERANCE"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t < 0 {
			fatalf("BENCH_TOLERANCE=%q is not a non-negative number", v)
		}
		return t
	}
	return 0.15
}

// measure times every gate workload with the testing package's
// benchmark machinery (adaptive b.N against -benchtime), keeps the
// minimum of repeat measurements — the statistic least disturbed by
// scheduler and cache noise — and reports progress on stderr so CI logs
// show where the time goes.
func measure(repeat int) File {
	f := File{Schema: benchSchema}
	for _, bm := range harness.KernelBenchmarks() {
		var events uint64
		var nsPerOp int64
		for k := 0; k < repeat; k++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					events = bm.Run()
				}
			})
			if ns := r.NsPerOp(); k == 0 || ns < nsPerOp {
				nsPerOp = ns
			}
		}
		res := Result{Name: bm.Name, WallNsPerOp: nsPerOp, Events: events}
		if nsPerOp > 0 {
			res.EventsPerSec = float64(events) / (float64(nsPerOp) / 1e9)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %-6s  %12d ns/op  %10.0f events/sec  (min of %d)\n",
			bm.Name, nsPerOp, res.EventsPerSec, repeat)
		f.Results = append(f.Results, res)
	}
	return f
}

// measureAnalytic times every analytic fast-path workload: the query
// batch with the testing package's benchmark machinery (ns/query needs
// b.N adaptivity — a batch runs in microseconds), and the single
// equivalent DES run with a plain min-of-repeat wall clock.
func measureAnalytic(repeat int) AnalyticFile {
	f := AnalyticFile{Schema: analyticSchema}
	for _, bm := range harness.AnalyticBenchmarks() {
		bm := bm
		var checksum int64
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				checksum = bm.Run()
			}
		})
		nsPerQuery := float64(r.NsPerOp()) / float64(bm.Queries)
		var desNs int64
		for k := 0; k < repeat; k++ {
			t0 := time.Now()
			bm.DES()
			if d := time.Since(t0).Nanoseconds(); k == 0 || d < desNs {
				desNs = d
			}
		}
		res := AnalyticResult{
			Name: bm.Name, Queries: bm.Queries, ChecksumPs: checksum,
			AnalyticNsPerQuery: nsPerQuery, DESNsPerRun: desNs,
		}
		if nsPerQuery > 0 {
			res.Speedup = float64(desNs) / nsPerQuery
			res.QueriesPerSec = 1e9 / nsPerQuery
		}
		fmt.Fprintf(os.Stderr, "benchgate: %-10s %10.1f ns/query  %12.0f queries/sec  DES %10d ns/run  %8.0fx  (min of %d)\n",
			bm.Name, nsPerQuery, res.QueriesPerSec, desNs, res.Speedup, repeat)
		f.Results = append(f.Results, res)
	}
	return f
}

// compareAnalytic renders the analytic gate table and returns whether it
// passes: every baseline workload must be present, answer exactly the
// baseline's checksum over exactly its query count (the model
// fingerprint), and keep the per-query speedup above the floor. Wall
// times are recorded, not compared — they are machine-dependent.
func compareAnalytic(base, fresh AnalyticFile, minSpeedup float64) bool {
	got := map[string]AnalyticResult{}
	for _, r := range fresh.Results {
		got[r.Name] = r
	}
	ok := true
	fmt.Printf("\n%-10s %8s %16s %12s %14s %10s  %s\n",
		"workload", "queries", "checksum (ps)", "ns/query", "queries/sec", "speedup", "verdict")
	for _, b := range base.Results {
		c, found := got[b.Name]
		if !found {
			fmt.Printf("%-10s %8d %16d %12s %14s %10s  MISSING\n", b.Name, b.Queries, b.ChecksumPs, "-", "-", "-")
			ok = false
			continue
		}
		verdict := "ok"
		switch {
		case c.Queries != b.Queries || c.ChecksumPs != b.ChecksumPs:
			verdict = fmt.Sprintf("FAIL: answered %d ps over %d queries, baseline pinned %d over %d (model changed? re-baseline with -update)",
				c.ChecksumPs, c.Queries, b.ChecksumPs, b.Queries)
			ok = false
		case c.Speedup < minSpeedup:
			verdict = fmt.Sprintf("FAIL: %.0fx speedup below the %.0fx floor", c.Speedup, minSpeedup)
			ok = false
		}
		fmt.Printf("%-10s %8d %16d %12.1f %14.0f %9.0fx  %s\n",
			c.Name, c.Queries, c.ChecksumPs, c.AnalyticNsPerQuery, c.QueriesPerSec, c.Speedup, verdict)
	}
	for _, c := range fresh.Results {
		found := false
		for _, b := range base.Results {
			if b.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-10s %8d %16d %12.1f %14.0f %9.0fx  not in baseline (add with -update)\n",
				c.Name, c.Queries, c.ChecksumPs, c.AnalyticNsPerQuery, c.QueriesPerSec, c.Speedup)
		}
	}
	return ok
}

func readAnalyticFile(path string) (AnalyticFile, error) {
	var f AnalyticFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != analyticSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, analyticSchema)
	}
	return f, nil
}

func writeAnalyticFile(path string, f AnalyticFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != benchSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchSchema)
	}
	return f, nil
}

func writeFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare renders the baseline-vs-fresh table and returns whether the
// gate passes: every baseline point must be present, fire exactly the
// baseline's event count, and not regress in wall time beyond the
// tolerance.
func compare(base, fresh File, tolerance float64) bool {
	got := map[string]Result{}
	for _, r := range fresh.Results {
		got[r.Name] = r
	}
	inBase := map[string]bool{}
	for _, b := range base.Results {
		inBase[b.Name] = true
	}
	ok := true
	fmt.Printf("%-16s %14s %14s %8s %14s  %s\n",
		"workload", "baseline ns/op", "measured ns/op", "delta", "events/sec", "verdict")
	for _, b := range base.Results {
		c, found := got[b.Name]
		if !found {
			fmt.Printf("%-16s %14d %14s %8s %14s  MISSING\n", b.Name, b.WallNsPerOp, "-", "-", "-")
			ok = false
			continue
		}
		delta := float64(c.WallNsPerOp)/float64(b.WallNsPerOp) - 1
		verdict := "ok"
		switch {
		case c.Events != b.Events:
			verdict = fmt.Sprintf("FAIL: fired %d events, baseline pinned %d (model changed? re-baseline with -update)",
				c.Events, b.Events)
			ok = false
		case delta > tolerance:
			verdict = fmt.Sprintf("FAIL: wall-time regression beyond %.0f%% tolerance", 100*tolerance)
			ok = false
		case delta < -tolerance:
			verdict = "ok (faster than baseline; consider ratcheting with -update)"
		}
		fmt.Printf("%-16s %14d %14d %+7.1f%% %14.0f  %s\n",
			b.Name, b.WallNsPerOp, c.WallNsPerOp, 100*delta, c.EventsPerSec, verdict)
	}
	for _, c := range fresh.Results {
		if !inBase[c.Name] {
			fmt.Printf("%-16s %14s %14d %8s %14.0f  not in baseline (add with -update)\n",
				c.Name, "-", c.WallNsPerOp, "-", c.EventsPerSec)
		}
	}
	return ok
}
