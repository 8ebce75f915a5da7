package harness

import (
	"strings"
	"testing"
)

// TestRunRules pins the rules both run front ends apply before anything
// runs — antonbench's configure and the serving tier's Normalize — over
// every registered experiment × {des, analytic} × {no plan, a plan with
// a kill on the last of the 512 nodes, a plan with a kill outside them}.
// Both callers apply Check before ParsePlan, so the first refusal in
// that order is the one a user sees.
func TestRunRules(t *testing.T) {
	// The experiments with a closed-form tier.
	analytic := map[string]bool{"fastpath": true}
	plans := map[string]string{
		"none":    "",
		"in":      "seed=9,killlink=511:X+@2us,wdog=15us",
		"outside": "seed=9,killnode=512@2us,wdog=15us",
	}
	// want: the refusal (a substring of its message) for an experiment
	// with or without an analytic tier; "" accepts.
	cases := []struct {
		tier     bool
		fidelity string
		plan     string
		want     string
	}{
		{false, FidelityDES, "none", ""},
		{false, FidelityDES, "in", ""},
		{false, FidelityDES, "outside", "only 512 nodes"},
		{false, FidelityAnalytic, "none", "event-driven only"},
		{false, FidelityAnalytic, "in", "event-driven only"},
		{false, FidelityAnalytic, "outside", "event-driven only"},
		{true, FidelityDES, "none", ""},
		{true, FidelityDES, "in", ""},
		{true, FidelityDES, "outside", "only 512 nodes"},
		{true, FidelityAnalytic, "none", ""},
		{true, FidelityAnalytic, "in", "refuses fault plans"},
		{true, FidelityAnalytic, "outside", "refuses fault plans"},
	}
	for _, e := range Experiments() {
		if e.Analytic != analytic[e.ID] {
			t.Errorf("%s: Analytic = %v, want %v", e.ID, e.Analytic, analytic[e.ID])
		}
		for _, c := range cases {
			if c.tier != analytic[e.ID] {
				continue
			}
			spec := plans[c.plan]
			err := e.Check(c.fidelity, spec != "")
			if err == nil && spec != "" {
				_, err = ParsePlan(spec)
			}
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s/%s/%s: refused: %v", e.ID, c.fidelity, c.plan, err)
			case c.want != "" && err == nil:
				t.Errorf("%s/%s/%s: accepted, want a refusal containing %q", e.ID, c.fidelity, c.plan, c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("%s/%s/%s: refusal %q does not contain %q", e.ID, c.fidelity, c.plan, err, c.want)
			}
		}
	}
}

// TestMappingCarriesSessionWorkers: the MD mapping an experiment builds
// (here the 512-node DHFR mapping behind Table 3 and Figures 11-13)
// takes the session's goroutine budget, so a one-worker session is
// sequential down to md.Build and bond aging.
func TestMappingCarriesSessionWorkers(t *testing.T) {
	for _, w := range []int{1, 3} {
		mp := dhfrMapping(&Session{Workers: w}, 3000, 0)
		if mp.Cfg.Workers != w || mp.Sys.Workers != w {
			t.Errorf("session workers %d: mapping has %d, MD system %d", w, mp.Cfg.Workers, mp.Sys.Workers)
		}
	}
}
