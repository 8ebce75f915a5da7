package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: a malformed or non-positive torus and a fault
// plan naming a node past the torus are errors, returned before any
// machine is built.
func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		torus, faults, wantErr string
	}{
		{"0x4x4", "", "bad torus"},
		{"4x4", "", "bad torus"},
		{"2x2x-2", "", "bad torus"},
		{"2x2x2", "killnode=8", "only 8 nodes"},
	}
	for _, tc := range cases {
		cfg := config{atoms: 4000, torus: tc.torus, seed: 1, faults: tc.faults}
		err := run(cfg, 1, 1, nil, "", io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("torus %q faults %q: error %v, want one containing %q", tc.torus, tc.faults, err, tc.wantErr)
		}
	}
}
