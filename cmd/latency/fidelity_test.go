package main

import (
	"strings"
	"testing"

	"anton/internal/topo"
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
	tor := topo.NewTorus(4, 4, 4)
	from, _ := parseNode("0,0,0", tor)
	to, _ := parseNode("1,2,0", tor)
	for _, bytes := range []int{0, 64, 256} {
		des, _, _ := measure(tor, from, to, bytes, nil, false)
		an := analyticLatency(tor, from, to, bytes)
		if an != des {
			t.Errorf("%dB: analytic %v, DES %v", bytes, an, des)
		}
	}
}

// TestParseArgsRejectsBadInput: every input the measurement cannot
// honour is an error from parseArgs, before a machine is built, rather
// than a panic or a run that measures something else.
func TestParseArgsRejectsBadInput(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string // substring; "" means accepted
	}{
		{[]string{"-torus", "4x4x4", "-from", "3,3,3", "-to", "0,0,0", "-bytes", "256"}, ""},
		{[]string{"-torus", "4x4x4", "-faults", "killnode=63@1us"}, ""},
		{[]string{"-torus", "0x4x4"}, "bad torus"},
		{[]string{"-torus", "4x4"}, "bad torus"},
		{[]string{"-torus", "4x-4x4"}, "bad torus"},
		{[]string{"-torus", "4x4x4", "-to", "9,0,0"}, "outside the 4x4x4 torus"},
		{[]string{"-torus", "4x4x4", "-from", "-1,0,0"}, "outside the 4x4x4 torus"},
		{[]string{"-to", "1,0"}, "bad coordinate"},
		{[]string{"-to", "1,0,0junk"}, "bad coordinate"},
		{[]string{"-to", "1,0,0,7"}, "bad coordinate"},
		{[]string{"-bytes", "-1"}, "outside [0,256]"},
		{[]string{"-bytes", "257"}, "outside [0,256]"},
		{[]string{"-torus", "4x4x4", "-faults", "killnode=600"}, "only 64 nodes"},
		{[]string{"-faults", "bogus=1"}, "bogus"},
		{[]string{"-fidelity", "analytic", "-faults", "seed=7,corrupt=0.1"}, "refuses fault plans"},
	}
	for _, tc := range cases {
		_, err := parseArgs(tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: want accept, got: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}
