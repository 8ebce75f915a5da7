package main

import (
	"sort"
	"time"
)

// workload is one closed-loop input: a single goroutine sends an op and
// waits for its result before sending the next.
type workload struct {
	name string
	// minOps is the fewest timed ops an untraced run makes. It fixes the
	// workload's tail percentile (tailPercentile(minOps)), so every run of
	// the workload reports the same percentile with at least ten ops
	// above it.
	minOps int
	// setup builds the system under test and runs its warm-up ops. tr is
	// nil outside a traced run.
	setup func(seed int64, tr *tracer) (instance, error)
}

// instance is a workload set up and ready to drive.
type instance interface {
	// op runs and checks one op and returns its latency. i numbers the
	// op within the process; tr is nil outside the traced phase.
	op(i int, tr *tracer) (time.Duration, error)
	// layers returns the per-layer metrics of the traced phase p.
	layers(tr *tracer, p *phase) (metrics, error)
	// finish runs the end-of-run checks.
	finish() error
	// info returns workload-specific provenance, such as checksums.
	info() map[string]any
	close()
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
