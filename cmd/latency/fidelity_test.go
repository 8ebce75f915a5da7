package main

import (
	"strings"
	"testing"
)

// TestFidelityGate pins the -fidelity error paths of the latency CLI:
// unknown tiers are rejected with a clear message, and the analytic
// tier refuses fault plans (it models a fault-free machine) and trace
// exports (it runs no events).
func TestFidelityGate(t *testing.T) {
	cases := []struct {
		name                      string
		fidelity, faults, traceIn string
		wantErr                   string // substring; "" means the gate accepts
	}{
		{"des-default", "des", "", "", ""},
		{"des-with-faults", "des", "seed=7,corrupt=0.1,retry=50ns", "", ""},
		{"des-with-trace", "des", "", "trace.json", ""},
		{"analytic-plain", "analytic", "", "", ""},
		{"unknown-tier", "exact", "", "", `unknown fidelity "exact"`},
		{"empty-tier", "", "", "", "unknown fidelity"},
		{"analytic-fault-plan", "analytic", "seed=7,corrupt=0.1", "", "refuses fault plans"},
		{"analytic-kill-scenario", "analytic", "seed=9,killlink=0:X+@2us,wdog=15us", "", "refuses fault plans"},
		{"analytic-trace", "analytic", "", "trace.json", "no event stream to trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := fidelityGate(tc.fidelity, tc.faults, tc.traceIn)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want accept, got: %v", err)
				}
				if f != tc.fidelity {
					t.Fatalf("canonical fidelity %q, want %q", f, tc.fidelity)
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

// TestAnalyticMatchesMeasure: the CLI's analytic path must answer
// exactly what its event-driven path measures (the tier's differential
// contract, exercised through the command's own helpers).
func TestAnalyticMatchesMeasure(t *testing.T) {
	tor, err := parseTorus("4x4x4")
	if err != nil {
		t.Fatal(err)
	}
	from, _ := parseCoord("0,0,0")
	to, _ := parseCoord("1,2,0")
	for _, bytes := range []int{0, 64, 256} {
		des, _, _ := measure(tor, from, to, bytes, nil, false)
		an := analyticLatency(tor, from, to, bytes)
		if an != des {
			t.Errorf("%dB: analytic %v, DES %v", bytes, an, des)
		}
	}
}
