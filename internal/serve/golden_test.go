package serve

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current API output")

// TestAPIGolden pins a full transcript of the HTTP API — the happy
// paths on a cheap deterministic experiment and every error path — as
// a golden file. The server is bit-deterministic end to end (responses,
// digests, sequential job ids, and, for a sequential script, the cache
// counters), so any diff means the wire contract changed. After an
// intentional change, regenerate with:
//
//	go test ./internal/serve -run APIGolden -update
func TestAPIGolden(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var b strings.Builder
	call := func(name, method, path, body string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n%s %s\n", name, method, path)
		if body != "" {
			fmt.Fprintf(&b, "%s\n", body)
		}
		fmt.Fprintf(&b, "-- %d", resp.StatusCode)
		if c := resp.Header.Get(CacheHeader); c != "" {
			fmt.Fprintf(&b, " cache=%s", c)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			fmt.Fprintf(&b, " retry-after=%s", ra)
		}
		fmt.Fprintf(&b, "\n%s", respBody)
		if len(respBody) > 0 && respBody[len(respBody)-1] != '\n' {
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}

	const fastpath = `{"experiment":"fastpath","fidelity":"analytic","quick":true}`
	digest := mustNormalize(t, fastpath).Digest()

	call("health", "GET", "/api/v1/healthz", "")
	call("ready", "GET", "/api/v1/readyz", "")
	call("experiments", "GET", "/api/v1/experiments", "")
	call("unknown experiment", "POST", "/api/v1/run", `{"experiment":"fig99"}`)
	call("bad fidelity", "POST", "/api/v1/run", `{"experiment":"fig5","fidelity":"cartoon"}`)
	call("analytic refused", "POST", "/api/v1/run", `{"experiment":"fig11","fidelity":"analytic"}`)
	call("analytic with faults refused", "POST", "/api/v1/run",
		`{"experiment":"fastpath","fidelity":"analytic","faults":"seed=1,corrupt=1e-4"}`)
	call("bad plan", "POST", "/api/v1/run", `{"experiment":"fig5","faults":"corrupt=lots"}`)
	call("bad timeout", "POST", "/api/v1/run", `{"experiment":"fig5","timeout_ms":-3}`)
	call("unknown field", "POST", "/api/v1/run", `{"experiment":"fig5","fidelty":"des"}`)
	call("wrong method", "GET", "/api/v1/run", "")
	call("run fastpath analytic (miss)", "POST", "/api/v1/run", fastpath)
	call("run again, different workers (hit, same bytes)", "POST", "/api/v1/run",
		`{"workers":5,"experiment":"fastpath","fidelity":"analytic","quick":true}`)
	call("run again with a generous timeout (hit, same bytes: timeout never changes the digest)", "POST", "/api/v1/run",
		`{"experiment":"fastpath","fidelity":"analytic","quick":true,"timeout_ms":60000}`)
	call("result by digest", "GET", "/api/v1/results/"+digest, "")
	call("unknown result", "GET", "/api/v1/results/deadbeef", "")
	call("artifacts of an artifact-free experiment", "GET", "/api/v1/artifacts/"+digest+"/bench", "")
	call("unknown artifact kind", "GET", "/api/v1/artifacts/"+digest+"/nope", "")
	call("submit cached job", "POST", "/api/v1/jobs", fastpath)
	call("job status", "GET", "/api/v1/jobs/j1", "")
	call("job stream (already done)", "GET", "/api/v1/jobs/j1/stream", "")
	call("cancel a done job", "DELETE", "/api/v1/jobs/j1", "")
	call("unknown job", "GET", "/api/v1/jobs/zzz", "")
	call("stats", "GET", "/api/v1/stats", "")

	// Drain: readiness flips, admission refuses compute, but cached
	// results still serve (a draining server finishes what it can).
	srv.BeginDrain()
	call("ready while draining", "GET", "/api/v1/readyz", "")
	call("health while draining (liveness stays up)", "GET", "/api/v1/healthz", "")
	call("run while draining (cached: still served)", "POST", "/api/v1/run", fastpath)
	call("run uncached while draining (refused)", "POST", "/api/v1/run", `{"experiment":"fig5","quick":true}`)
	call("submit while draining (refused)", "POST", "/api/v1/jobs", fastpath)
	call("stats while draining", "GET", "/api/v1/stats", "")

	golden := filepath.Join("testdata", "api_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("API transcript drifted from %s (regenerate with -update after an intentional change)\ngot:\n%s", golden, diffHint(got, string(want)))
	}
}

// diffHint returns the first differing line pair — enough to locate a
// drift without dumping two multi-kilobyte transcripts.
func diffHint(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length changed: got %d lines, want %d", len(g), len(w))
}
