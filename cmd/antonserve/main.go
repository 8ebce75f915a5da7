// Command antonserve is the simulation-as-a-service tier: a
// long-running HTTP server that accepts JSON experiment requests and
// runs them as concurrent isolated sessions of the antonbench harness,
// behind a deterministic result cache.
//
// Usage:
//
//	antonserve [-addr :8080] [-cache 256] [-checkpoint anton.ckpt]
//	           [-des-workers 1] [-analytic-workers 1] [-queue-depth 64]
//	           [-session-workers N] [-timeout 0] [-drain 15s]
//
// API (all under /api/v1):
//
//	GET    /experiments                list the experiment registry
//	POST   /run                        run synchronously; the response is
//	                                   byte-identical between a fresh run
//	                                   and a cache hit (the X-Anton-Cache
//	                                   header says which it was); a
//	                                   timeout_ms request field (or the
//	                                   -timeout default) bounds the wait
//	                                   (504 past it, nothing cached)
//	POST   /jobs                       submit asynchronously; returns a job id
//	GET    /jobs/{id}                  job state and sweep progress
//	GET    /jobs/{id}/stream           progress as newline-delimited JSON
//	DELETE /jobs/{id}                  cancel: queued jobs are withdrawn,
//	                                   running jobs abort cooperatively
//	                                   within one abort-check interval;
//	                                   cancelled runs are never cached
//	GET    /results/{digest}           a completed result by cache digest
//	GET    /artifacts/{digest}/bench   the run's BENCH_metrics.json
//	GET    /artifacts/{digest}/trace   the run's chrome://tracing export
//	GET    /stats                      cache counters, queue depths, state
//	GET    /healthz                    liveness (200 for the process lifetime)
//	GET    /readyz                     readiness (503 during startup restore
//	                                   and drain; load balancers route on this)
//
// With -checkpoint the completed result cache is persisted after every
// finished job and restored at startup — in the background: the
// listener binds immediately and /readyz flips to 200 when the restore
// lands — so a restarted server resumes with every previously computed
// experiment already answered.
//
// Every connection is bounded: a client has 10 s to send its request
// headers, and a keep-alive connection closes after 2 min idle. Responses
// have no write deadline, because a cold DES run can take seconds.
//
// SIGTERM (or SIGINT) drains gracefully: readiness flips to 503,
// admission stops, in-flight and queued jobs get the -drain budget to
// finish — past it their contexts are cancelled and the cooperative
// abort stops remaining compute without caching it — the checkpoint is
// written exactly once, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anton/internal/serve"
)

// The connection bounds of the server main builds (newHTTPServer).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the HTTP server antonserve listens with. It sets
// no WriteTimeout: a response waits for its run, and a cold DES run can
// take seconds.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache", 256, "result cache bound in entries (0 = unbounded)")
	checkpointPath := flag.String("checkpoint", "", "persist/restore the result cache at this path")
	desWorkers := flag.Int("des-workers", 1, "event-driven queue worker pool size")
	analyticWorkers := flag.Int("analytic-workers", 1, "analytic queue worker pool size")
	queueDepth := flag.Int("queue-depth", 64, "per-fidelity queue bound (full queue answers 503)")
	sessionWorkers := flag.Int("session-workers", 1, "default per-run sweep goroutine budget")
	timeout := flag.Duration("timeout", 0, "default deadline for requests without timeout_ms (0 = none)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-drain budget before in-flight work is aborted")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "antonserve: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	srv := serve.NewStarting(serve.Config{
		CacheEntries:   *cacheEntries,
		CheckpointPath: *checkpointPath,
		DefaultTimeout: *timeout,
		DrainBudget:    *drain,
		Sched: serve.SchedConfig{
			DESWorkers:      *desWorkers,
			AnalyticWorkers: *analyticWorkers,
			QueueDepth:      *queueDepth,
			SessionWorkers:  *sessionWorkers,
		},
	})
	// Restore in the background: the listener answers /healthz and
	// /readyz (503 starting) while a large checkpoint loads, and
	// admission opens the moment it lands. A corrupt or foreign
	// checkpoint is a deployment error, not something to silently
	// ignore: fail loudly.
	restored := make(chan error, 1)
	go func() { restored <- srv.Restore() }()

	hs := newHTTPServer(*addr, srv.Handler())
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if err := <-restored; err != nil {
			fmt.Fprintf(os.Stderr, "antonserve: restore: %v\n", err)
			hs.Close()
			os.Exit(1)
		}
		fmt.Println("antonserve: ready")
	}()
	go func() {
		<-sig
		fmt.Println("antonserve: draining")
		// Drain blocks until in-flight work finishes or the budget aborts
		// it, and persists the final checkpoint exactly once.
		srv.Drain()
		// Then close the listener, giving straggling response writes a
		// moment to flush.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		hs.Shutdown(ctx)
		cancel()
		close(done)
	}()

	fmt.Printf("antonserve: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "antonserve: %v\n", err)
		os.Exit(1)
	}
	<-done
}
