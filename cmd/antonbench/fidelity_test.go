package main

import (
	"strings"
	"testing"

	"anton/internal/fault"
	"anton/internal/harness"
)

// TestFidelityGate pins the -fidelity error paths of configure: unknown
// tiers are rejected with a clear message, and the analytic tier refuses
// the combinations it cannot model (fault plans, kill scenarios,
// event-driven-only experiments) instead of silently answering. An
// accepted configuration carries the flags into the session.
func TestFidelityGate(t *testing.T) {
	cases := []struct {
		name             string
		fidelity, faults string
		ids              []string
		wantErr          string // substring; "" means the gate accepts
	}{
		{"des-default", "des", "", []string{"fig5", "fastpath"}, ""},
		{"analytic-fastpath", "analytic", "", []string{"fastpath"}, ""},
		{"des-with-faults", "des", "seed=42,corrupt=1e-3", []string{"faultsweep"}, ""},
		{"unknown-tier", "quantum", "", nil, `unknown fidelity "quantum"`},
		{"empty-tier", "", "", nil, "unknown fidelity"},
		{"case-sensitive", "DES", "", nil, "unknown fidelity"},
		{"analytic-fault-plan", "analytic", "seed=42,corrupt=1e-3,retry=50ns", []string{"fastpath"}, "refuses fault plans"},
		{"analytic-kill-scenario", "analytic", "seed=9,killlink=0:X+@2us,wdog=15us", []string{"fastpath"}, "refuses fault plans"},
		{"analytic-des-only-experiment", "analytic", "", []string{"fig5"}, "event-driven only"},
		{"analytic-mixed-ids", "analytic", "", []string{"fastpath", "killsweep"}, "event-driven only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := configure(3, tc.fidelity, tc.faults, tc.ids)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want accept, got: %v", err)
				}
				if sess.Workers != 3 || sess.Fidelity != tc.fidelity || (sess.Faults != nil) != (tc.faults != "") {
					t.Fatalf("session %+v does not carry workers 3, fidelity %q, faults %q", sess, tc.fidelity, tc.faults)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFastpathRefusesFaultPlan: the fastpath experiment itself refuses
// to answer under an installed fault plan rather than comparing a
// faulted event simulator against the fault-free closed form.
func TestFastpathRefusesFaultPlan(t *testing.T) {
	plan := fault.MustParsePlan("seed=9,killlink=0:X+@2us,wdog=15us")
	e, ok := harness.Lookup("fastpath")
	if !ok {
		t.Fatal("experiment fastpath not registered")
	}
	got := e.RunWith(&harness.Session{Workers: 1, Faults: &plan}, true)
	if !strings.Contains(got, "refused") {
		t.Fatalf("fastpath under a kill plan should refuse; got:\n%s", got)
	}
}
