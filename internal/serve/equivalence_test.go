package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"anton/internal/harness"
)

// The cache-equivalence battery pins the serving tier's core promise:
// a cached response is byte-identical to a fresh run. Three tiers keep
// it affordable on the default `go test` run:
//
//   - -short: the cheap subset, with the full miss/hit/evict/recompute
//     cycle (this is what the -race CI stage replays);
//   - default: every experiment except the two multi-minute MD sweeps
//     (fig11, fig12) gets the miss/hit cycle; the cheap subset keeps
//     the evict-then-recompute identity check;
//   - ANTON_SERVE_FULL=1: everything, including fig11/fig12, with the
//     full cycle.
func equivalenceRequests(t *testing.T) (reqs []Request, recompute map[string]bool) {
	cheap := []Request{
		{Experiment: "fastpath", Fidelity: harness.FidelityAnalytic, Quick: true},
		{Experiment: "fig5", Quick: true},
		{Experiment: "fig6", Quick: true},
		{Experiment: "table1", Quick: true},
		{Experiment: "fig6", Faults: "seed=7,corrupt=1e-4,retry=250ns", Quick: true},
	}
	recompute = map[string]bool{}
	for _, r := range cheap {
		n, err := Normalize(r)
		if err != nil {
			t.Fatal(err)
		}
		recompute[n.Digest()] = true
	}
	if testing.Short() {
		return cheap, recompute
	}
	full := os.Getenv("ANTON_SERVE_FULL") != ""
	reqs = cheap
	for _, e := range harness.Experiments() {
		switch e.ID {
		case "fig5", "fig6", "table1", "fastpath":
			continue // already in the cheap subset
		case "fig11", "fig12":
			if !full {
				continue
			}
		}
		reqs = append(reqs, Request{Experiment: e.ID, Quick: true})
		if full {
			n, err := Normalize(Request{Experiment: e.ID, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			recompute[n.Digest()] = true
		}
	}
	// The DES tier of the fastpath experiment exercises the differential
	// path the analytic entry skips.
	reqs = append(reqs, Request{Experiment: "fastpath", Quick: true})
	return reqs, recompute
}

func postRun(t *testing.T, url string, req Request) (Outcome, []byte) {
	t.Helper()
	body, err := marshalRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run %s: %d %s", body, resp.StatusCode, out)
	}
	return Outcome(resp.Header.Get(CacheHeader)), out
}

func marshalRequest(r Request) ([]byte, error) {
	b := &bytes.Buffer{}
	fmt.Fprintf(b, `{"experiment":%q`, r.Experiment)
	if r.Fidelity != "" {
		fmt.Fprintf(b, `,"fidelity":%q`, r.Fidelity)
	}
	if r.Faults != "" {
		fmt.Fprintf(b, `,"faults":%q`, r.Faults)
	}
	if r.Quick {
		fmt.Fprint(b, `,"quick":true`)
	}
	if r.Workers != 0 {
		fmt.Fprintf(b, `,"workers":%d`, r.Workers)
	}
	fmt.Fprint(b, "}")
	return b.Bytes(), nil
}

func TestCacheEquivalence(t *testing.T) {
	reqs, recompute := equivalenceRequests(t)
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, req := range reqs {
		req := req
		name := req.Experiment
		if req.Fidelity != "" {
			name += "/" + req.Fidelity
		}
		if req.Faults != "" {
			name += "/faulted"
		}
		t.Run(name, func(t *testing.T) {
			n, err := Normalize(req)
			if err != nil {
				t.Fatal(err)
			}
			o1, fresh := postRun(t, ts.URL, req)
			if o1 != Miss {
				t.Fatalf("first request: outcome %v, want miss", o1)
			}
			// The hit request deliberately differs in workers:
			// byte-identity must hold across that knob too.
			hitReq := req
			hitReq.Workers = 3
			o2, cached := postRun(t, ts.URL, hitReq)
			if o2 != Hit {
				t.Fatalf("second request: outcome %v, want hit", o2)
			}
			if !bytes.Equal(fresh, cached) {
				t.Fatalf("cache hit differs from fresh run:\nfresh:  %s\ncached: %s", fresh, cached)
			}
			if !recompute[n.Digest()] {
				return
			}
			// Evict and recompute in a brand-new session: the strong form
			// of the identity — two independent computations, same bytes.
			if !srv.cache.Evict(n.Digest()) {
				t.Fatal("evict hook failed")
			}
			o3, again := postRun(t, ts.URL, req)
			if o3 != Miss {
				t.Fatalf("post-eviction request: outcome %v, want miss", o3)
			}
			if !bytes.Equal(fresh, again) {
				t.Fatalf("recomputed response differs from the original run:\nfirst:  %s\nsecond: %s", fresh, again)
			}
		})
	}
}

// TestSingleFlightDedup: N concurrent identical requests run the
// simulation exactly once — every response is byte-identical and the
// cache counts exactly one miss.
func TestSingleFlightDedup(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 12
	body := []byte(`{"experiment":"fastpath","fidelity":"analytic","quick":true}`)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, out)
			}
			bodies[i], errs[i] = out, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d saw different bytes than client 0", i)
		}
	}
	st := srv.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d cache misses for %d identical concurrent requests, want exactly 1 (stats %+v)", st.Misses, n, st)
	}
	if st.Hits+st.Joins != n-1 {
		t.Fatalf("hits+joins = %d, want %d (stats %+v)", st.Hits+st.Joins, n-1, st)
	}
}
