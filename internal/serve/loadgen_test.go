package serve

import (
	"net/http/httptest"
	"testing"
)

// testMix is a trimmed, cheap mix for the loadgen's own tests.
func testMix() []Request {
	return []Request{
		{Experiment: "fastpath", Fidelity: "analytic", Quick: true},
		{Experiment: "fig5", Quick: true},
		{Experiment: "fig5", Quick: true, Workers: 4}, // same digest as above
	}
}

func runLoadOnce(t *testing.T, cfg LoadConfig) LoadStats {
	t.Helper()
	srv, err := New(Config{Sched: SchedConfig{DESWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st, err := RunLoad(ts.URL+"/api/v1", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLoadChecksumDeterministic: the same (seed, requests) config
// produces the same order-independent response checksum against two
// independent servers at different client counts — the property that
// lets BENCH_gate.json pin the checksum exactly.
func TestLoadChecksumDeterministic(t *testing.T) {
	a := runLoadOnce(t, LoadConfig{Requests: 24, Clients: 4, Seed: 7, Mix: testMix()})
	b := runLoadOnce(t, LoadConfig{Requests: 24, Clients: 2, Seed: 7, Mix: testMix()})
	if a.Errors != 0 || b.Errors != 0 {
		t.Fatalf("errors: %d and %d, want 0", a.Errors, b.Errors)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("checksum not deterministic: %s vs %s", a.Checksum, b.Checksum)
	}
	if a.DistinctDigests != 2 || b.DistinctDigests != 2 {
		t.Fatalf("distinct digests %d/%d, want 2 (workers must not split a digest)", a.DistinctDigests, b.DistinctDigests)
	}
	if a.CacheMisses != a.DistinctDigests {
		t.Fatalf("%d misses for %d digests: single-flight dedup broken", a.CacheMisses, a.DistinctDigests)
	}
	// A different seed reorders the picks but (with this small mix and
	// enough requests) covers the same entries, so the multiset of
	// responses — and the checksum — can differ only via pick counts.
	c := runLoadOnce(t, LoadConfig{Requests: 24, Clients: 4, Seed: 8, Mix: testMix()})
	if c.Errors != 0 {
		t.Fatalf("seed-8 run errored %d times", c.Errors)
	}
}

// TestDefaultMixNormalizes: every entry of the committed default mix
// must stay valid against the experiment registry.
func TestDefaultMixNormalizes(t *testing.T) {
	digests := map[string]bool{}
	for i, r := range DefaultMix() {
		n, err := Normalize(r)
		if err != nil {
			t.Fatalf("default mix entry %d (%+v): %v", i, r, err)
		}
		digests[n.Digest()] = true
	}
	if len(digests) != 6 {
		t.Fatalf("default mix spans %d digests, want 6 (two entries are deliberate digest aliases)", len(digests))
	}
}
