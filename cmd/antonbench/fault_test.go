package main

import (
	"os"
	"path/filepath"
	"testing"

	"anton/internal/fault"
	"anton/internal/harness"
)

// A zero-rate fault plan must be a perfect no-op: with an injector
// attached to every experiment simulator but all rates zero, the fig6
// and table1 reports must match their golden files byte for byte. This
// is the acceptance gate for the fault layer's wiring — the models
// consult the injector on every traversal, so any scheduling
// perturbation (an extra event, a reordered draw, a float detour) would
// shift a latency and break the comparison.
func TestZeroRatePlanGoldenIdentity(t *testing.T) {
	plan := fault.MustParsePlan("seed=7")
	if !plan.IsZero() {
		t.Fatalf("plan %v should be zero-rate", plan)
	}
	for _, id := range []string{"fig6", "table1"} {
		e, ok := harness.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		got := e.RunWith(&harness.Session{Workers: 1, Faults: &plan}, false)
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s under a zero-rate fault plan differs from the fault-free golden\n--- got ---\n%s--- want ---\n%s",
				id, got, want)
		}
	}
}
