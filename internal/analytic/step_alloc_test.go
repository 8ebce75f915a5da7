package analytic_test

import (
	"runtime"
	"testing"

	"anton/internal/analytic"
	"anton/internal/mdmap"
	"anton/internal/topo"
)

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates on its own.
var raceEnabled bool

// quickCalibration calibrates in fastpath's -quick shape: a 2x2x2 torus
// at 300 and 600 atoms, two steps per reference.
func quickCalibration(t *testing.T) {
	t.Helper()
	cfg := mdmap.DefaultConfig()
	cfg.MigrationInterval = 0
	if _, err := analytic.CalibrateStep(topo.NewTorus(2, 2, 2), cfg, 300, 600,
		analytic.StepOptions{Steps: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrationAllocations bounds what a quick calibration allocates.
// Its link evidence is five counters per link; a recorder on the
// reference machines would also log every packet event, ~640 MB in this
// shape, and break the bound.
func TestCalibrationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	quickCalibration(t)
	runtime.ReadMemStats(&after)
	const bound = 200 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("quick calibration allocated %.1f MB", float64(got)/(1<<20))
	if got > bound {
		t.Fatalf("quick calibration allocated %d MB, bound %d MB", got>>20, bound>>20)
	}
}
