// Command benchgate is the repository's benchmark gate. It measures
// every gate workload — the event kernel (harness.KernelBenchmarks), the
// analytic fast path (harness.AnalyticBenchmarks) and the serving tier
// (the default load mix against an in-process antonserve) — and compares
// the fresh rows against the committed baseline BENCH_gate.json,
// exiting nonzero on a regression.
//
// Usage:
//
//	benchgate [-baseline BENCH_gate.json] [-out fresh.json] [-update]
//	          [-benchtime 1s] [-repeat 3]
//
// The file holds one row per workload, keyed by name. Every field of a
// row carries the rule that gates it, written next to its value:
//
//   - exact: the fresh value must equal the baseline's. Event counts,
//     answer checksums and the load mix's request and cache accounting
//     are pure functions of the model, identical on every host.
//   - floor: the fresh value must not fall below the floor (the analytic
//     tier's 1000x per-query speedup over one equivalent DES run).
//   - relative: the fresh value may be worse than the baseline's by the
//     tolerance, a fraction of the baseline, or by the absolute slack,
//     whichever is larger. An environment variable named by the field
//     overrides its tolerance: BENCH_TOLERANCE for kernel wall time,
//     SERVE_TOLERANCE for the serve latencies and throughput.
//   - recorded: kept for the record and never compared.
//
// A field's rule is declared where its row is measured (measure) and
// enters the file with the field; from then on the rule in the file
// governs. -update rewrites the baseline's values from a fresh
// measurement and keeps each field's rule, so a rule changes by an edit
// to the file. -out also writes the fresh rows to a file. Every file
// benchgate writes records the host that measured it. Host wall time is
// the minimum of -repeat measurements.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"anton/internal/harness"
	"anton/internal/serve"
)

// schema versions the gate file layout.
const schema = "anton-gate/v1"

// The field rules, and the two directions of a relative field.
const (
	ruleExact    = "exact"
	ruleFloor    = "floor"
	ruleRelative = "relative"
	ruleRecorded = "recorded"
	lower        = "lower"
	higher       = "higher"
)

// File is one gate file: the host that measured it and a row per
// workload.
type File struct {
	Schema string `json:"schema"`
	// Host is absent from rows carried over from files that predate it.
	Host *Host `json:"host,omitempty"`
	Rows []Row `json:"rows"`
}

// Host describes the machine that measured a file.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// Row is one workload's measurement.
type Row struct {
	Name   string  `json:"name"`
	Fields []Field `json:"fields"`
}

// Field is one measured value and the rule that gates it.
type Field struct {
	Name string `json:"name"`
	// Value is the value's JSON text; exact fields compare it byte for
	// byte.
	Value json.RawMessage `json:"value"`
	Rule  string          `json:"rule"`
	// Floor is the least value a floor field may take.
	Floor float64 `json:"floor,omitempty"`
	// Better orients a relative field (lower or higher). Tolerance and
	// Slack bound how much worse it may get, relatively and absolutely;
	// Env names the environment variable that overrides Tolerance.
	Better    string  `json:"better,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
	Slack     float64 `json:"slack,omitempty"`
	Env       string  `json:"env,omitempty"`
}

// text is a value's JSON text. A value JSON cannot hold (NaN, ±Inf) has
// none, and fails every rule but recorded.
func text(v any) json.RawMessage {
	data, _ := json.Marshal(v)
	return data
}

func exact(name string, v any) Field    { return Field{Name: name, Value: text(v), Rule: ruleExact} }
func recorded(name string, v any) Field { return Field{Name: name, Value: text(v), Rule: ruleRecorded} }

func floor(name string, v, least float64) Field {
	return Field{Name: name, Value: text(v), Rule: ruleFloor, Floor: least}
}

func relative(name string, v float64, better string, tolerance, slack float64, env string) Field {
	return Field{Name: name, Value: text(v), Rule: ruleRelative,
		Better: better, Tolerance: tolerance, Slack: slack, Env: env}
}

func main() {
	baseline := flag.String("baseline", "BENCH_gate.json", "committed baseline to compare against (and rewrite with -update)")
	out := flag.String("out", "", "also write the fresh measurements to this file")
	update := flag.Bool("update", false, "rewrite the baseline's values from the fresh measurements instead of comparing")
	benchtime := flag.String("benchtime", "1s", "minimum measurement time per workload")
	repeat := flag.Int("repeat", 3, "measurements per point; the minimum wall time is kept (noise robustness)")
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatalf("-benchtime %q: %v", *benchtime, err)
	}
	if *repeat < 1 {
		fatalf("-repeat must be at least 1")
	}
	base, err := read(*baseline)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		fatalf("%v (-update creates a missing baseline)", err)
	}
	if !*update {
		if err := overrideTolerances(&base); err != nil {
			fatalf("%v", err)
		}
	}

	host := Host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	fmt.Printf("benchgate: host %d CPUs, GOMAXPROCS %d, %s\n", host.CPUs, host.GOMAXPROCS, host.Go)
	fresh := File{Schema: schema, Host: &host, Rows: measure(*repeat)}
	if *out != "" {
		if err := write(*out, fresh); err != nil {
			fatalf("%v", err)
		}
	}
	if *update {
		if err := write(*baseline, keepRules(base, fresh)); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("benchgate: wrote baseline %s (%d rows)\n", *baseline, len(fresh.Rows))
		return
	}
	if !compare(os.Stdout, base, fresh) {
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}

func read(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return f, nil
}

func write(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// overrideTolerances sets each relative field's tolerance, in place, to
// the value of the environment variable the field names, when it is set.
func overrideTolerances(f *File) error {
	for _, r := range f.Rows {
		for i := range r.Fields {
			fd := &r.Fields[i]
			v := os.Getenv(fd.Env)
			if fd.Env == "" || v == "" {
				continue
			}
			t, err := strconv.ParseFloat(v, 64)
			if err != nil || !(t >= 0) {
				return fmt.Errorf("%s=%q is not a non-negative number", fd.Env, v)
			}
			fd.Tolerance = t
		}
	}
	return nil
}

// keepRules returns fresh with each field that base also has gated by
// base's rule.
func keepRules(base, fresh File) File {
	for _, r := range fresh.Rows {
		br, _ := lookup(base.Rows, r.Name)
		for i, fd := range r.Fields {
			if bf, ok := lookup(br.Fields, fd.Name); ok {
				bf.Value = fd.Value
				r.Fields[i] = bf
			}
		}
	}
	return fresh
}

func (r Row) key() string   { return r.Name }
func (f Field) key() string { return f.Name }

// lookup finds the element of xs with the given name.
func lookup[T interface{ key() string }](xs []T, name string) (T, bool) {
	for _, x := range xs {
		if x.key() == name {
			return x, true
		}
	}
	var zero T
	return zero, false
}

// compare prints a line per baseline field with its verdict, and a line
// per fresh row or field the baseline lacks, and reports whether every
// baseline field was measured and passes its rule.
func compare(w io.Writer, base, fresh File) bool {
	ok := true
	line := "%-18s %-22s %20s %20s  %s\n"
	fmt.Fprintf(w, line, "row", "field", "baseline", "measured", "verdict")
	for _, b := range base.Rows {
		f, found := lookup(fresh.Rows, b.Name)
		if !found {
			fmt.Fprintf(w, line, b.Name, "", "", "-", "FAIL: not measured")
			ok = false
			continue
		}
		for _, bf := range b.Fields {
			verdict, pass := "FAIL: not measured", false
			ff, found := lookup(f.Fields, bf.Name)
			if found {
				verdict, pass = check(bf, ff)
			}
			ok = ok && pass
			fmt.Fprintf(w, line, b.Name, bf.Name, bf.Value, ff.Value, verdict)
		}
		for _, ff := range f.Fields {
			if _, in := lookup(b.Fields, ff.Name); !in {
				fmt.Fprintf(w, line, b.Name, ff.Name, "-", ff.Value, "not in baseline (add with -update)")
			}
		}
	}
	for _, f := range fresh.Rows {
		if _, in := lookup(base.Rows, f.Name); !in {
			fmt.Fprintf(w, line, f.Name, "", "-", "", "not in baseline (add with -update)")
		}
	}
	return ok
}

// check applies the baseline field's rule to the fresh field.
func check(b, f Field) (verdict string, pass bool) {
	switch b.Rule {
	case ruleExact:
		if !bytes.Equal(b.Value, f.Value) {
			return "FAIL: must equal the baseline (model changed? re-baseline with -update)", false
		}
		return "ok (exact)", true
	case ruleRecorded:
		return "recorded", true
	}
	bv, err1 := strconv.ParseFloat(string(b.Value), 64)
	fv, err2 := strconv.ParseFloat(string(f.Value), 64)
	if err1 != nil || err2 != nil {
		return "FAIL: not a number", false
	}
	switch {
	case b.Rule == ruleFloor && fv < b.Floor:
		return fmt.Sprintf("FAIL: below the %g floor", b.Floor), false
	case b.Rule == ruleFloor:
		return fmt.Sprintf("ok (floor %g)", b.Floor), true
	case b.Rule != ruleRelative || (b.Better != lower && b.Better != higher):
		return fmt.Sprintf("FAIL: unknown rule %q %q", b.Rule, b.Better), false
	}
	// delta and worse are how much worse the fresh value is, relative
	// to the baseline and absolute.
	delta, worse := fv/bv-1, fv-bv
	if b.Better == higher {
		delta, worse = -delta, -worse
	}
	how := fmt.Sprintf("%.1f%% worse", 100*delta)
	if delta < 0 {
		how = fmt.Sprintf("%.1f%% better", -100*delta)
	}
	limit := fmt.Sprintf("limit %.0f%%", 100*b.Tolerance)
	if b.Slack > 0 {
		limit += fmt.Sprintf(" or %g", b.Slack)
	}
	if delta > b.Tolerance && worse > b.Slack {
		return fmt.Sprintf("FAIL: %s (%s)", how, limit), false
	}
	return fmt.Sprintf("ok, %s (%s)", how, limit), true
}

// measure runs every gate workload. Each row declares its fields' rules.
func measure(repeat int) []Row {
	var rows []Row
	add := func(start time.Time, name string, fields ...Field) {
		fmt.Fprintf(os.Stderr, "benchgate: measured %s in %.1fs\n", name, time.Since(start).Seconds())
		rows = append(rows, Row{Name: name, Fields: fields})
	}
	// The kernel rows time each workload with the testing package's
	// adaptive b.N and keep the fastest of repeat measurements.
	for _, bm := range harness.KernelBenchmarks() {
		start := time.Now()
		var events uint64
		var best testing.BenchmarkResult
		for k := 0; k < repeat; k++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					events = bm.Run()
				}
			})
			if k == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		var perSec float64
		if ns := best.NsPerOp(); ns > 0 {
			perSec = float64(events) / (float64(ns) / 1e9)
		}
		add(start, "kernel/"+bm.Name,
			exact("events", events),
			relative("wall_ns_per_op", float64(best.NsPerOp()), lower, 0.15, 0, "BENCH_TOLERANCE"),
			relative("allocs_per_op", float64(best.AllocsPerOp()), lower, 0.10, 0, ""),
			recorded("events_per_sec", perSec))
	}
	// The analytic rows time the closed-form batch with b.N (it runs in
	// microseconds) and one equivalent DES run with a plain clock, each
	// the fastest of repeat measurements.
	for _, bm := range harness.AnalyticBenchmarks() {
		start := time.Now()
		var checksum, batchNs, desNs int64
		for k := 0; k < repeat; k++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					checksum = bm.Run()
				}
			})
			if ns := r.NsPerOp(); k == 0 || ns < batchNs {
				batchNs = ns
			}
			t0 := time.Now()
			bm.DES()
			if d := time.Since(t0).Nanoseconds(); k == 0 || d < desNs {
				desNs = d
			}
		}
		nsPerQuery := float64(batchNs) / float64(bm.Queries)
		var speedup, perSec float64
		if nsPerQuery > 0 {
			speedup, perSec = float64(desNs)/nsPerQuery, 1e9/nsPerQuery
		}
		add(start, "analytic/"+bm.Name,
			exact("queries", bm.Queries),
			exact("checksum_ps", checksum),
			floor("speedup", speedup, 1000),
			recorded("analytic_ns_per_query", nsPerQuery),
			recorded("des_ns_per_run", desNs),
			recorded("queries_per_sec", perSec))
	}
	start := time.Now()
	cfg := serve.LoadConfig{Requests: 200, Clients: 8, Seed: 1}
	st := measureServe(cfg)
	add(start, "serve/default-mix",
		exact("seed", cfg.Seed),
		exact("requests", st.Requests),
		exact("clients", st.Clients),
		exact("errors", st.Errors),
		exact("retry_attempts", st.RetryAttempts),
		exact("distinct_digests", st.DistinctDigests),
		exact("cache_misses", st.CacheMisses),
		exact("checksum", st.Checksum),
		relative("p50_ms", st.P50Ms, lower, 0.50, 5, "SERVE_TOLERANCE"),
		relative("p99_ms", st.P99Ms, lower, 0.50, 250, "SERVE_TOLERANCE"),
		relative("rps", st.RPS, higher, 0.50, 0, "SERVE_TOLERANCE"),
		recorded("mean_ms", st.MeanMs),
		recorded("wall_ms", st.WallMs),
		recorded("cache_hits", st.CacheHits),
		recorded("cache_joins", st.CacheJoins),
		recorded("retried", st.Retried))
	return rows
}

// measureServe runs a load mix against an in-process server on a
// loopback listener, so the measurement has no external moving parts.
func measureServe(cfg serve.LoadConfig) serve.LoadStats {
	srv, err := serve.New(serve.Config{Sched: serve.SchedConfig{DESWorkers: 2, AnalyticWorkers: 1}})
	if err != nil {
		fatalf("serve: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	st, err := serve.RunLoad(ts.URL+"/api/v1", nil, cfg)
	if err != nil {
		fatalf("serve: %v", err)
	}
	return st
}
