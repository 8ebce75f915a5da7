package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator drives a deterministic request mix against a
// running server and reports client-observed latency and throughput.
// Determinism is the point: the i-th request of a run is a pure
// function of (seed, i), so two runs of the same config issue the
// same multiset of requests, and — because every simulation result is
// bit-deterministic — receive the same multiset of response bodies.
// The order-independent checksum over those bodies is therefore a
// machine-independent fingerprint of the whole serving path
// (normalization, digesting, scheduling, caching, rendering), which is
// what the benchmark gate (cmd/benchgate, BENCH_gate.json) pins exactly
// while the latency numbers are gated only within a tolerance.

// DefaultMix is the standard load mix: cheap experiments at both
// fidelities, a faulted variant, and spellings that differ only in
// workers — which share a digest by design, so a correct cache turns
// them into hits.
func DefaultMix() []Request {
	return []Request{
		{Experiment: "fastpath", Fidelity: "analytic", Quick: true},
		{Experiment: "fig5", Quick: true},
		{Experiment: "fig6", Quick: true},
		{Experiment: "table1", Quick: true},
		{Experiment: "table2", Quick: true},
		{Experiment: "fig6", Faults: "seed=7,corrupt=1e-4,retry=250ns", Quick: true},
		// Same digests as the fig5/fastpath entries above: workers never
		// change a response byte.
		{Experiment: "fig5", Quick: true, Workers: 4},
		{Experiment: "fastpath", Fidelity: "analytic", Quick: true, Workers: 2},
	}
}

// LoadConfig shapes one load run.
type LoadConfig struct {
	Requests int
	Clients  int
	Seed     uint64
	Mix      []Request // nil: DefaultMix

	// Retries is the per-request retry budget for retryable failures:
	// transport errors and the shedding statuses 503/504. 0 disables
	// retries (the seed behaviour).
	Retries int
	// Backoff is the base retry delay (default 50ms): attempt k waits
	// Backoff<<(k-1) plus deterministic seeded jitter in [0, Backoff),
	// raised to the server's Retry-After hint when that is larger and
	// capped at maxBackoff.
	Backoff time.Duration
}

// maxBackoff caps any single retry wait, Retry-After included: a load
// generator that sleeps the full server hint would measure the hint, not
// the recovery.
const maxBackoff = 2 * time.Second

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	return c
}

// LoadStats is one load run's outcome. benchgate gates the deterministic
// fields (the counts, cache misses and Checksum) exactly and the
// latencies and throughput within a tolerance.
type LoadStats struct {
	Requests        int    `json:"requests"`
	Clients         int    `json:"clients"`
	Errors          int    `json:"errors"`
	DistinctDigests int    `json:"distinct_digests"`
	Checksum        string `json:"checksum"`
	CacheHits       int    `json:"cache_hits"`
	CacheMisses     int    `json:"cache_misses"`
	CacheJoins      int    `json:"cache_joins"`
	// Retried counts requests that needed at least one retry;
	// RetryAttempts counts the extra attempts issued in total. Both are
	// 0 on a healthy in-process run (the committed baseline pins that).
	Retried       int     `json:"retried"`
	RetryAttempts int     `json:"retry_attempts"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	WallMs        float64 `json:"wall_ms"`
	RPS           float64 `json:"rps"`
}

// splitmix64 is the standard 64-bit mix; request i draws its mix entry
// from splitmix64(seed + i), so the sequence is reproducible and has no
// shared-generator ordering dependence between concurrent clients.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunLoad issues cfg.Requests requests from cfg.Clients concurrent
// clients against baseURL (an /api/v1 server root, no trailing slash)
// and summarizes what the clients observed.
func RunLoad(baseURL string, client *http.Client, cfg LoadConfig) (LoadStats, error) {
	cfg = cfg.withDefaults()
	if client == nil {
		client = http.DefaultClient
	}
	bodies := make([][]byte, len(cfg.Mix))
	digests := map[string]bool{}
	for i, r := range cfg.Mix {
		b, err := json.Marshal(r)
		if err != nil {
			return LoadStats{}, err
		}
		bodies[i] = b
		n, err := Normalize(r)
		if err != nil {
			return LoadStats{}, fmt.Errorf("loadgen: mix entry %d: %w", i, err)
		}
		digests[n.Digest()] = true
	}

	latencies := make([]time.Duration, cfg.Requests)
	var checksum, errs atomic.Uint64
	var hits, misses, joins atomic.Int64
	var retried, retryAttempts atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests {
					return
				}
				pick := int(splitmix64(cfg.Seed+uint64(i)) % uint64(len(cfg.Mix)))
				t0 := time.Now()
				// Retry loop: transport errors and the shedding statuses
				// (503 queue-full/draining, 504 deadline) are retryable;
				// everything else is a terminal client error. Only the final
				// successful body feeds the checksum, so the order-independent
				// sum is untouched by how many attempts a request needed.
				attempts := 0
				for {
					resp, err := client.Post(baseURL+"/run", "application/json", bytes.NewReader(bodies[pick]))
					var body []byte
					status, retryAfter := 0, 0
					outcome := ""
					if err == nil {
						body, err = io.ReadAll(resp.Body)
						resp.Body.Close()
						status = resp.StatusCode
						retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
						outcome = resp.Header.Get(CacheHeader)
					}
					if err == nil && status == http.StatusOK {
						switch Outcome(outcome) {
						case Hit:
							hits.Add(1)
						case Miss:
							misses.Add(1)
						case Join:
							joins.Add(1)
						}
						h := fnv.New64a()
						h.Write(body)
						checksum.Add(h.Sum64())
						break
					}
					retryable := err != nil ||
						status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout
					if !retryable || attempts >= cfg.Retries {
						errs.Add(1)
						break
					}
					attempts++
					retryAttempts.Add(1)
					// Exponential backoff with deterministic seeded jitter:
					// the same (seed, request, attempt) always waits the same
					// extra amount, so a replayed run schedules identically.
					shift := attempts - 1
					if shift > 10 {
						shift = 10 // maxBackoff caps the wait anyway
					}
					wait := cfg.Backoff << shift
					wait += time.Duration(splitmix64(cfg.Seed^uint64(i)<<16^uint64(attempts)) % uint64(cfg.Backoff))
					if ra := time.Duration(retryAfter) * time.Second; ra > wait {
						wait = ra
					}
					if wait > maxBackoff {
						wait = maxBackoff
					}
					time.Sleep(wait)
				}
				if attempts > 0 {
					retried.Add(1)
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / 1e6
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	st := LoadStats{
		Requests:        cfg.Requests,
		Clients:         cfg.Clients,
		Errors:          int(errs.Load()),
		DistinctDigests: len(digests),
		Checksum:        fmt.Sprintf("%016x", checksum.Load()),
		CacheHits:       int(hits.Load()),
		CacheMisses:     int(misses.Load()),
		CacheJoins:      int(joins.Load()),
		Retried:         int(retried.Load()),
		RetryAttempts:   int(retryAttempts.Load()),
		P50Ms:           pct(0.50),
		P99Ms:           pct(0.99),
		MeanMs:          float64(sum) / float64(cfg.Requests) / 1e6,
		WallMs:          float64(wall) / 1e6,
	}
	if wall > 0 {
		st.RPS = float64(cfg.Requests) / wall.Seconds()
	}
	return st, nil
}

// MixWithExtraFaults is DefaultMix plus n faulted fig6 variants with
// distinct fault seeds — n guaranteed-uncached digests of real DES
// compute. The chaos battery uses it to keep jobs in flight at the
// moment it SIGKILLs the server.
func MixWithExtraFaults(n int) []Request {
	mix := DefaultMix()
	for i := 0; i < n; i++ {
		mix = append(mix, Request{
			Experiment: "fig6", Quick: true,
			Faults: fmt.Sprintf("seed=%d,corrupt=1e-4", 1000+i),
		})
	}
	return mix
}

// MixDigests returns a mix's distinct cache digests in first-appearance
// order. The chaos suite enumerates them to assert a restarted server
// still serves every previously completed result byte-identically.
func MixDigests(mix []Request) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for i, r := range mix {
		n, err := Normalize(r)
		if err != nil {
			return nil, fmt.Errorf("mix entry %d: %w", i, err)
		}
		if d := n.Digest(); !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out, nil
}

// WaitReady polls GET {base}/readyz until the server answers 200 or the
// timeout expires — the cross-process analogue of waiting for Restore.
func WaitReady(baseURL string, client *http.Client, timeout time.Duration) error {
	if client == nil {
		client = http.DefaultClient
	}
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(baseURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("readyz: %s", resp.Status)
		} else {
			last = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %s: %v", timeout, last)
}

// FetchResults downloads GET /results/{digest} for each digest into dir
// as <digest>.json, failing on any non-200 — the byte-identity probe
// the chaos suite runs before and after a crash/restart cycle.
func FetchResults(baseURL string, client *http.Client, digests []string, dir string) error {
	if client == nil {
		client = http.DefaultClient
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range digests {
		resp, err := client.Get(baseURL + "/results/" + d)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("results/%s: %s: %s", d, resp.Status, bytes.TrimSpace(body))
		}
		if err := os.WriteFile(filepath.Join(dir, d+".json"), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}
