package main

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"anton/internal/serve"
)

func digestOf(t *testing.T, body []byte) string {
	t.Helper()
	req, err := serve.ParseRequest(body)
	if err != nil {
		t.Fatalf("parse %s: %v", body, err)
	}
	return req.Digest()
}

// The serve-90hit plan is a pure function of the seed, its planned
// outcomes are exactly what the server's cache produces, and no planned
// miss shares a digest with the set-up mix or with another miss.
func TestServePlan(t *testing.T) {
	mix, err := mixBodies()
	if err != nil {
		t.Fatal(err)
	}
	mixDigest := make([]string, len(mix))
	for j, b := range mix {
		mixDigest[j] = digestOf(t, b)
	}
	const n = 4000 // 400 misses: enough to fill the cache and evict
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		cache := serve.NewCache(serveCache)
		warmHits, warm := 0, map[string]bool{}
		for _, d := range mixDigest {
			e, out := cache.Get(d)
			if out == serve.Hit {
				warmHits++
				continue
			}
			cache.Complete(e, serve.Result{})
			warm[d] = true
		}
		missDigests := map[string]bool{}
		hits, misses := 0, 0
		for i := 0; i < n; i++ {
			p := planOp(seed, mix, i)
			if q := planOp(seed, mix, i); !bytes.Equal(p.body, q.body) || p.outcome != q.outcome || p.mix != q.mix {
				t.Fatalf("seed %d op %d: planned twice, got %+v and %+v", seed, i, p, q)
			}
			d := digestOf(t, p.body)
			if p.outcome == serve.Miss {
				if warm[d] || missDigests[d] {
					t.Fatalf("seed %d op %d: miss %s reuses digest %s", seed, i, p.body, d)
				}
				missDigests[d] = true
				misses++
			} else {
				if d != mixDigest[p.mix] {
					t.Fatalf("seed %d op %d: hit body is not mix entry %d", seed, i, p.mix)
				}
				hits++
			}
			e, out := cache.Get(d)
			if out != p.outcome {
				t.Fatalf("seed %d op %d: cache says %s, plan says %s", seed, i, out, p.outcome)
			}
			if out == serve.Miss {
				cache.Complete(e, serve.Result{})
			}
			if (i+1)%500 == 0 {
				if got, want := cache.Stats(), expectStats(warmHits, len(warm), hits, misses); got != want {
					t.Fatalf("seed %d after %d ops: counters %+v, want %+v", seed, i+1, got, want)
				}
			}
		}
		if misses != n/missEvery {
			t.Fatalf("seed %d: %d misses in %d ops, want one in %d", seed, misses, n, missEvery)
		}
	}

	differ := false
	for i := 0; i < 100 && !differ; i++ {
		differ = !bytes.Equal(planOp(1, mix, i).body, planOp(2, mix, i).body)
	}
	if !differ {
		t.Fatal("seeds 1 and 2 plan the same first 100 ops")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, p int }{
		{10, 0}, {11, 9}, {20, 50}, {40, 75}, {44, 77}, {999, 98}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.p {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.p)
		}
	}
	for n := 11; n <= 3000; n++ {
		p := tailPercentile(n)
		if above(p, n) < 10 {
			t.Fatalf("n=%d: p%d has %d samples above it", n, p, above(p, n))
		}
		if n < p99Samples && above(p+1, n) >= 10 {
			t.Fatalf("n=%d: p%d is not the highest percentile with ten samples above", n, p)
		}
	}
	// Each workload's fixed percentile keeps ten samples above it in every
	// window a run can end with: windows hold minOps to 2*minOps-1 ops.
	for name, w := range workloads {
		p := tailPercentile(w.minOps)
		for n := w.minOps; n < 4*w.minOps; n++ {
			if above(p, n) < 10 {
				t.Fatalf("%s: p%d at %d ops has %d samples above it", name, p, n, above(p, n))
			}
		}
	}
	if got := tailPercentile(workloads["dhfr-64"].minOps); got != 75 {
		t.Errorf("dhfr-64 tail percentile %d, want 75", got)
	}

	for _, c := range []struct {
		n, size int
		want    [][2]int
	}{
		{500, 1000, [][2]int{{0, 500}}},
		{3000, 1000, [][2]int{{0, 1000}, {1000, 2000}, {2000, 3000}}},
		{2999, 1000, [][2]int{{0, 1000}, {1000, 2999}}},
		{61, 40, [][2]int{{0, 61}}},
	} {
		if got := windows(c.n, c.size); !slices.Equal(got, c.want) {
			t.Errorf("windows(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
		}
	}

	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100 - i)
	}
	if got := percentile(ds, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := percentile(ds, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of op
		{Name: "a.x", Start: 15, End: 25, Parent: 1},
		{Name: "op", Start: 200, End: 210, Parent: -1},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 10, 30, 30, 10, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans)
	if sum[0].Name != "op" || sum[0].Count != 2 || sum[0].Total != 110 || sum[0].Self != 60 {
		t.Fatalf("summary of op = %+v, want 2 calls, 110 total, 60 self", sum[0])
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.begin("x")
	off.end()
	tr := newTracer()
	tr.op = 3
	tr.begin("op")
	tr.begin("child")
	tr.end()
	tr.begin("sibling")
	tr.end()
	tr.end()
	parents := []int{-1, 0, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Op != 3 || s.End < s.Start {
			t.Fatalf("span %d = %+v, want parent %d in op 3", i, s, parents[i])
		}
	}
}
