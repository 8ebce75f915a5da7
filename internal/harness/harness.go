// Package harness regenerates every table and figure of the paper's
// evaluation. Each experiment is a function returning a rendered text
// report; the registry maps experiment ids (fig5, table3, ...) to them so
// the antonbench command, the antonserve HTTP tier, and the top-level
// benchmarks share one implementation.
//
// Experiments run inside a Session, which carries everything that may
// perturb simulator construction or report content: the goroutine
// budget, the fidelity tier and the fault plan. Only the metrics
// experiment records lifecycle events: it sets a recorder on each model
// it builds and reads it back. A Session is the only way to configure a
// run — the package keeps no settings of its own — so two sessions with
// different fault plans can
// run concurrently in one process, which is what lets the serving tier
// execute many sim sessions at once. Experiment.Check and ParsePlan hold
// the rules on which (experiment, fidelity, fault plan) combinations may
// run; the CLI and the serving tier both apply them.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"anton/internal/fault"
	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/noc"
	"anton/internal/par"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	// run executes the experiment inside a session. quick trades sampling
	// density for speed where the full experiment is expensive
	// (Fig. 11/12).
	run func(s *Session, quick bool) string
	// artifacts, when non-nil, runs the experiment and returns its
	// machine-readable artifacts alongside the report (currently only the
	// metrics experiment: BENCH_metrics.json plus the chrome-trace
	// export). The CLI and the HTTP tier dispatch on this instead of
	// hardcoding experiment ids.
	artifacts func(s *Session, quick bool) Artifacts
	// Analytic marks experiments that support the closed-form fast-path
	// tier (-fidelity analytic). Everything else is event-driven only;
	// Check refuses it at analytic fidelity.
	Analytic bool
}

// RunWith executes the experiment inside the given session.
func (e Experiment) RunWith(s *Session, quick bool) string { return e.run(s, quick) }

// HasArtifacts reports whether the experiment produces machine-readable
// artifacts beyond its text report.
func (e Experiment) HasArtifacts() bool { return e.artifacts != nil }

// ArtifactsWith runs the experiment inside the given session and returns
// its full artifact set. It panics if the experiment has none; check
// HasArtifacts first.
func (e Experiment) ArtifactsWith(s *Session, quick bool) Artifacts {
	if e.artifacts == nil {
		panic(fmt.Sprintf("harness: experiment %q has no artifacts", e.ID))
	}
	return e.artifacts(s, quick)
}

// Check reports whether the experiment may run at the given canonical
// fidelity, with or without a fault plan. The analytic tier refuses two
// combinations rather than approximating them: an experiment with no
// closed-form tier, and any fault plan (the closed forms model a
// fault-free machine). At DES fidelity everything runs.
func (e Experiment) Check(fidelity string, faulted bool) error {
	if fidelity == FidelityAnalytic && !e.Analytic {
		return fmt.Errorf("experiment %q is event-driven only and has no analytic tier; run it at fidelity %q", e.ID, FidelityDES)
	}
	return CheckFaults(fidelity, faulted)
}

// CheckFaults refuses a fault plan at the analytic fidelity: the closed
// forms model a fault-free machine. Every front end that takes both a
// fidelity and a fault plan asks it, directly or through Check.
func CheckFaults(fidelity string, faulted bool) error {
	if fidelity == FidelityAnalytic && faulted {
		return fmt.Errorf("the analytic tier models a fault-free machine and refuses fault plans; drop faults or use fidelity %q", FidelityDES)
	}
	return nil
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Session is one isolated experiment run's configuration. The zero
// value runs at DES fidelity with no faults, on GOMAXPROCS goroutines;
// set Workers to 1 for a sequential run.
// Sessions must not be shared between concurrent experiment runs (each
// run owns its progress counter), but any number of sessions may run
// concurrently — nothing in the harness is shared between them, which
// is the isolation contract the serving tier's concurrent sim sessions
// rely on.
type Session struct {
	// Workers is the run's goroutine budget: experiment sweeps run their
	// independent simulator instances on a pool of this size, and every
	// MD mapping the session builds uses it for its host-side
	// precomputation (md.Build, bond aging). 1 runs everything on the
	// calling goroutine; 0 or a negative value resolves to GOMAXPROCS
	// (par.Workers). Each simulator runs on one goroutine. Reports are
	// byte-identical at any setting.
	Workers int
	// Fidelity selects the simulation tier (FidelityDES when empty).
	Fidelity string
	// Faults, when non-nil, is attached to every simulator the session
	// builds; each simulator gets its own injector seeded from the plan,
	// so a zero-rate plan reproduces the fault-free reports bit for bit.
	Faults *fault.Plan
	// Progress, when non-nil, is called with the cumulative number of
	// completed sweep units each time one finishes. Sweep units complete
	// on pool goroutines, so the hook must be safe for concurrent use;
	// the count is monotone. The serving tier streams it to clients.
	Progress func(completed int)

	// Ctx, when non-nil, cooperatively cancels the run: the generic
	// sweep() consults it between sweep points (a cancelled session skips
	// every remaining sweep unit), and every simulator the session builds
	// installs an abort hook polled at event-batch boundaries
	// (sim.SetAbort). Cancellation never
	// produces partial committed state inside a simulator — the kernel
	// stops only between fully committed events — but a cancelled run's
	// report is a truncated artifact and must be discarded, never cached
	// or served; the serving tier aborts the in-flight cache entry. Nil
	// means the session is never cancelled.
	Ctx context.Context

	completed atomic.Int64
}

// fidelity returns the session tier, resolving the zero value.
func (s *Session) fidelity() string {
	if s.Fidelity == "" {
		return FidelityDES
	}
	return s.Fidelity
}

// NewSim returns a fresh simulator configured by the session: the abort
// hook and the fault plan (if any). Every experiment builds its
// simulators through this, which is how one request's fault plan
// perturbs exactly that request's evaluation and nothing else.
func (s *Session) NewSim() *sim.Sim {
	sm := sim.New()
	s.armAbort(sm)
	if s.Faults != nil {
		fault.Attach(sm, *s.Faults)
	}
	return sm
}

// newMapping maps the MD system cfg describes onto a fresh machine of
// torus tor simulated by sm. The session's goroutine budget replaces
// cfg.Workers. Experiments build their mappings here (fastpath's
// calibration, which builds its own, sets cfg.Workers the same way), so
// -workers reaches the MD layer.
func (s *Session) newMapping(sm *sim.Sim, tor topo.Torus, cfg mdmap.Config) *mdmap.Mapping {
	cfg.Workers = s.Workers
	return mdmap.New(sm, machine.New(sm, tor, noc.DefaultModel()), cfg)
}

// armAbort installs the session's cooperative-abort hook on sm (a
// no-op for a session without a context). Every simulator a session
// run builds must pass through here — NewSim does, and so does the
// fault-sweep experiments' custom-plan faultSim — otherwise a
// cancellation stalls until the next sweep point instead of stopping
// at the next event batch.
func (s *Session) armAbort(sm *sim.Sim) {
	if s.Ctx == nil {
		return
	}
	done := s.Ctx.Done()
	sm.SetAbort(func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
}

// step records one completed sweep unit and notifies the progress hook.
func (s *Session) step() {
	n := s.completed.Add(1)
	if s.Progress != nil {
		s.Progress(int(n))
	}
}

// Completed reports the cumulative number of finished sweep units.
func (s *Session) Completed() int { return int(s.completed.Load()) }

// Cancelled reports whether the session's context (if any) has been
// cancelled. Experiments and the generic sweep consult it between units
// of work; once it returns true the run's output is garbage by contract.
func (s *Session) Cancelled() bool {
	if s.Ctx == nil {
		return false
	}
	select {
	case <-s.Ctx.Done():
		return true
	default:
		return false
	}
}

// Err returns the session context's error: nil while live,
// context.Canceled or context.DeadlineExceeded after cancellation.
func (s *Session) Err() error {
	if s.Ctx == nil {
		return nil
	}
	return s.Ctx.Err()
}

// sweep runs n independent jobs — each building its own sim.Sim and
// machine — on the session worker pool and returns the results in index
// order. Each completed job bumps the session progress counter. A
// cancelled session skips every not-yet-started unit, leaving zero
// values behind: the caller's report is then a discarded artifact (the
// progress counter also stops, so observers can tell the run died).
func sweep[T any](s *Session, n int, job func(i int) T) []T {
	out := make([]T, n)
	par.ParFor(par.Workers(s.Workers), n, func(i int) {
		if s.Cancelled() {
			return
		}
		out[i] = job(i)
		s.step()
	})
	return out
}

// Fidelity tiers. FidelityDES answers every query by running the
// event-driven simulator; FidelityAnalytic answers from the closed-form
// fast-path tier (internal/analytic) where an experiment supports it.
const (
	FidelityDES      = "des"
	FidelityAnalytic = "analytic"
)

// ParseFidelity validates a -fidelity flag value and returns the
// canonical tier name.
func ParseFidelity(s string) (string, error) {
	switch s {
	case FidelityDES, FidelityAnalytic:
		return s, nil
	}
	return "", fmt.Errorf("unknown fidelity %q (valid values: %s, %s)", s, FidelityDES, FidelityAnalytic)
}

// ParsePlan parses a fault plan in the -faults flag syntax and checks
// that every link, outage and kill it names exists on the 512-node
// flagship, the largest machine any experiment builds; a kill beyond it
// would hit nothing.
func ParsePlan(s string) (*fault.Plan, error) {
	p, err := fault.ParsePlan(s)
	if err == nil {
		err = p.ValidateTopo(512)
	}
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Experiments returns every registered experiment sorted by id — the
// enumerable registry shared by the antonbench CLI and the antonserve
// HTTP tier.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Table is a simple fixed-width text table builder.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table { return &Table{headers: headers} }

// Row appends a row; values are formatted with %v unless already strings.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func header(title string) string {
	return title + "\n" + strings.Repeat("=", len(title)) + "\n"
}
