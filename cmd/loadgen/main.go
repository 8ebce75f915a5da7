// Command loadgen drives a deterministic request mix against an
// antonserve instance and reports client-observed latency and
// throughput (p50/p99/mean, requests per second) plus the
// order-independent response checksum that fingerprints the whole
// serving path.
//
// Usage:
//
//	loadgen [-addr http://host:8080] [-n 200] [-clients 8] [-seed 1]
//	        [-retries 0] [-backoff 50ms] [-wait-ready 0]
//	        [-extra-faults 0] [-fetch DIR]
//
// With no -addr it spins an in-process server on a loopback listener —
// the self-contained mode CI's smoke stage uses, so the measurement has
// no external moving parts. The benchmark gate (cmd/benchgate) runs the
// same default mix the same way and records it in BENCH_gate.json.
//
// Against a live server the chaos-oriented flags apply: -wait-ready
// polls /readyz before driving load (a restarting server restores its
// checkpoint in the background), -retries/-backoff retry shedding
// responses (503/504, honoring Retry-After) with deterministic seeded
// jitter, -extra-faults N widens the mix with N uncached faulted DES
// variants so kills land mid-compute, and -fetch DIR downloads every
// mix digest's cached result into DIR and exits — the byte-identity
// probe the crash/restart suite compares across a kill.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"anton/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "server base URL (empty: run an in-process server)")
	n := flag.Int("n", 200, "number of requests")
	clients := flag.Int("clients", 8, "concurrent clients")
	seed := flag.Uint64("seed", 1, "mix-selection seed")
	retries := flag.Int("retries", 0, "per-request retry budget for 503/504/transport errors")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base retry backoff (exponential, seeded jitter)")
	waitReady := flag.Duration("wait-ready", 0, "poll /readyz this long before driving load (0: don't)")
	extraFaults := flag.Int("extra-faults", 0, "append N uncached faulted DES variants to the mix")
	fetch := flag.String("fetch", "", "fetch every mix digest's result into this directory and exit")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	base := strings.TrimSuffix(*addr, "/")
	if base == "" {
		srv, err := serve.New(serve.Config{Sched: serve.SchedConfig{DESWorkers: 2, AnalyticWorkers: 1}})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()
		base = ts.URL
	}
	api := base + "/api/v1"

	mix := serve.DefaultMix()
	if *extraFaults > 0 {
		mix = serve.MixWithExtraFaults(*extraFaults)
	}

	if *waitReady > 0 {
		if err := serve.WaitReady(api, nil, *waitReady); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	}

	if *fetch != "" {
		digests, err := serve.MixDigests(mix)
		if err == nil {
			err = serve.FetchResults(api, nil, digests, *fetch)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("loadgen: fetched %d results into %s\n", len(digests), *fetch)
		return
	}

	st, err := serve.RunLoad(api, nil, serve.LoadConfig{
		Requests: *n, Clients: *clients, Seed: *seed, Mix: mix,
		Retries: *retries, Backoff: *backoff,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("loadgen: %d requests, %d clients, seed %d\n", st.Requests, st.Clients, *seed)
	fmt.Printf("  errors            %d\n", st.Errors)
	fmt.Printf("  retried           %d requests (%d extra attempts)\n", st.Retried, st.RetryAttempts)
	fmt.Printf("  distinct digests  %d\n", st.DistinctDigests)
	fmt.Printf("  checksum          %s\n", st.Checksum)
	fmt.Printf("  cache             %d hits / %d misses / %d joins\n", st.CacheHits, st.CacheMisses, st.CacheJoins)
	fmt.Printf("  latency           p50 %.2f ms  p99 %.2f ms  mean %.2f ms\n", st.P50Ms, st.P99Ms, st.MeanMs)
	fmt.Printf("  throughput        %.1f req/s over %.0f ms\n", st.RPS, st.WallMs)

	if st.Errors > 0 {
		os.Exit(1)
	}
}
