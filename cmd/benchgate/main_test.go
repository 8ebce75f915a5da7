package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

const committed = "../../BENCH_gate.json"

func readCommitted(t *testing.T) File {
	t.Helper()
	f, err := read(committed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// clone copies f deeply enough that a case may change any field.
func clone(f File) File {
	rows := make([]Row, len(f.Rows))
	for i, r := range f.Rows {
		rows[i] = Row{Name: r.Name, Fields: append([]Field(nil), r.Fields...)}
	}
	f.Rows = rows
	return f
}

// set gives row.field a new value, as a fresh measurement would.
func set(row, field string, v any) func(File) File {
	return func(f File) File {
		for _, r := range f.Rows {
			for i := range r.Fields {
				if r.Name == row && r.Fields[i].Name == field {
					r.Fields[i].Value = text(v)
				}
			}
		}
		return f
	}
}

// TestVerdicts runs the committed baseline against fresh rows that each
// differ from it in one way. Every verdict is the one the three separate
// gates gave before they were folded into this one, except for
// allocs_per_op, which they did not gate.
func TestVerdicts(t *testing.T) {
	base := readCommitted(t)
	const (
		fig6, sweep = "kernel/fig6", "kernel/sweep"
		p2p, reduce = "analytic/p2p", "analytic/allreduce"
		mix         = "serve/default-mix"
	)
	cases := []struct {
		name   string
		change func(File) File
		pass   bool
	}{
		{"baseline", func(f File) File { return f }, true},

		{"fig6 events +1", set(fig6, "events", 2801), false},
		{"sweep events +1", set(sweep, "events", 4451177), false},
		{"p2p queries +1", set(p2p, "queries", 51), false},
		{"p2p checksum +1", set(p2p, "checksum_ps", 22588753), false},
		{"allreduce queries +1", set(reduce, "queries", 3), false},
		{"allreduce checksum +1", set(reduce, "checksum_ps", 3188929), false},
		{"serve seed +1", set(mix, "seed", 2), false},
		{"serve requests +1", set(mix, "requests", 201), false},
		{"serve clients +1", set(mix, "clients", 9), false},
		{"serve errors +1", set(mix, "errors", 1), false},
		{"serve retry attempts +1", set(mix, "retry_attempts", 1), false},
		{"serve distinct digests +1", set(mix, "distinct_digests", 7), false},
		{"serve cache misses +1", set(mix, "cache_misses", 7), false},
		{"serve checksum changed", set(mix, "checksum", "7c83ba4a4144a88b"), false},

		// 359,563 ns x 1.15 = 413,497.45 ns.
		{"fig6 wall inside 15%", set(fig6, "wall_ns_per_op", 413497), true},
		{"fig6 wall outside 15%", set(fig6, "wall_ns_per_op", 413498), false},
		// 1,026,462,626 ns x 1.15 = 1,180,432,019.9 ns.
		{"sweep wall inside 15%", set(sweep, "wall_ns_per_op", 1180432019), true},
		{"sweep wall outside 15%", set(sweep, "wall_ns_per_op", 1180432020), false},
		// 827 x 1.10 = 909.7 and 456,038 x 1.10 = 501,641.8.
		{"fig6 allocs inside 10%", set(fig6, "allocs_per_op", 909), true},
		{"fig6 allocs outside 10%", set(fig6, "allocs_per_op", 910), false},
		{"sweep allocs inside 10%", set(sweep, "allocs_per_op", 501641), true},
		{"sweep allocs outside 10%", set(sweep, "allocs_per_op", 501642), false},
		{"sweep allocs doubled", set(sweep, "allocs_per_op", 2*456038), false},

		// p50: 0.334371 ms x 1.5 = 0.5015565 ms, and 0.334371 + 5 ms of
		// slack = 5.334371 ms; the larger bound governs.
		{"p50 inside 50%", set(mix, "p50_ms", 0.5015555), true},
		{"p50 outside 50%, inside slack", set(mix, "p50_ms", 0.5015575), true},
		{"p50 inside slack", set(mix, "p50_ms", 5.33437), true},
		{"p50 outside slack", set(mix, "p50_ms", 5.334372), false},
		// p99: 1,389.310892 ms x 1.5 = 2,083.966338 ms, beyond the
		// 250 ms slack (1,639.310892 ms).
		{"p99 inside slack", set(mix, "p99_ms", 1639.310891), true},
		{"p99 outside slack, inside 50%", set(mix, "p99_ms", 1639.310893), true},
		{"p99 inside 50%", set(mix, "p99_ms", 2083.966337), true},
		{"p99 outside 50%", set(mix, "p99_ms", 2083.966339), false},
		// rps, no slack: 139.78146293510872 x 0.5 = 69.89073146755436.
		{"rps inside 50%", set(mix, "rps", 69.8907324), true},
		{"rps outside 50%", set(mix, "rps", 69.8907304), false},

		{"p2p speedup 1000x", set(p2p, "speedup", 1000.0), true},
		{"p2p speedup 999x", set(p2p, "speedup", 999.0), false},
		{"allreduce speedup 1000x", set(reduce, "speedup", 1000.0), true},
		{"allreduce speedup 999x", set(reduce, "speedup", 999.0), false},

		{"recorded fields move freely", func(f File) File {
			f = set(fig6, "events_per_sec", 1.0)(f)
			f = set(p2p, "des_ns_per_run", 1)(f)
			return set(mix, "cache_hits", 0)(f)
		}, true},
		{"missing row", func(f File) File { f.Rows = f.Rows[:len(f.Rows)-1]; return f }, false},
		{"missing field", func(f File) File { f.Rows[0].Fields = f.Rows[0].Fields[1:]; return f }, false},
		{"extra row", func(f File) File {
			f.Rows = append(f.Rows, Row{Name: "kernel/new", Fields: []Field{exact("events", 1)}})
			return f
		}, true},
		{"extra field", func(f File) File {
			f.Rows[0].Fields = append(f.Rows[0].Fields, recorded("new", 1))
			return f
		}, true},
	}
	for _, tc := range cases {
		fresh := tc.change(clone(base))
		var out bytes.Buffer
		if got := compare(&out, base, fresh); got != tc.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", tc.name, got, tc.pass, out.String())
		}
	}
}

// TestEnvironmentOverrides: BENCH_TOLERANCE and SERVE_TOLERANCE set the
// tolerance of exactly the fields that name them, and a value that is
// not a non-negative number is an error.
func TestEnvironmentOverrides(t *testing.T) {
	t.Setenv("BENCH_TOLERANCE", "0.50")
	t.Setenv("SERVE_TOLERANCE", "1.00")
	base := readCommitted(t)
	if err := overrideTolerances(&base); err != nil {
		t.Fatal(err)
	}
	for _, r := range base.Rows {
		for _, f := range r.Fields {
			want := map[string]float64{"BENCH_TOLERANCE": 0.5, "SERVE_TOLERANCE": 1}[f.Env]
			if f.Name == "allocs_per_op" {
				want = 0.10
			}
			if f.Rule == ruleRelative && f.Tolerance != want {
				t.Errorf("%s.%s tolerance %g, want %g", r.Name, f.Name, f.Tolerance, want)
			}
		}
	}
	fresh := set("kernel/fig6", "wall_ns_per_op", 539344)(clone(base)) // +49.9999%
	if !compare(io.Discard, base, fresh) {
		t.Error("BENCH_TOLERANCE=0.50 did not admit a 49.99% slower fig6")
	}
	for _, bad := range []string{"-0.1", "abc", "NaN"} {
		t.Setenv("SERVE_TOLERANCE", bad)
		if err := overrideTolerances(&base); err == nil {
			t.Errorf("SERVE_TOLERANCE=%s accepted", bad)
		}
	}
}

// TestUpdateKeepsRules: -update takes each field's value from the fresh
// measurement and its rule from the baseline; a field the baseline lacks
// keeps the rule it was measured with.
func TestUpdateKeepsRules(t *testing.T) {
	base := File{Schema: schema, Rows: []Row{{Name: "kernel/fig6", Fields: []Field{
		relative("wall_ns_per_op", 100, lower, 0.25, 0, ""),
	}}}}
	fresh := File{Schema: schema, Rows: []Row{{Name: "kernel/fig6", Fields: []Field{
		relative("wall_ns_per_op", 90, lower, 0.15, 0, "BENCH_TOLERANCE"),
		exact("events", 7),
	}}}}
	got := keepRules(base, fresh).Rows[0].Fields
	want := []Field{relative("wall_ns_per_op", 90, lower, 0.25, 0, ""), exact("events", 7)}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("updated fields %s, want %s", g, w)
	}
}

// TestCommittedFileIsCanonical: the committed baseline reads and writes
// back byte for byte, so -update rewrites only the values it measures.
func TestCommittedFileIsCanonical(t *testing.T) {
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gate.json")
	if err := write(path, readCommitted(t)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rewritten baseline differs:\n%s", got)
	}
}
