package analytic_test

import (
	"runtime"
	"testing"

	"anton/internal/analytic"
	"anton/internal/mdmap"
	"anton/internal/metrics"
	"anton/internal/sim"
	"anton/internal/topo"
)

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates on its own.
var raceEnabled bool

// quickCalibration calibrates in fastpath's -quick shape: a 2x2x2 torus
// at 300 and 600 atoms, two steps per reference.
func quickCalibration(t *testing.T, newSim func() *sim.Sim) {
	t.Helper()
	cfg := mdmap.DefaultConfig()
	cfg.MigrationInterval = 0
	if _, err := analytic.CalibrateStep(topo.NewTorus(2, 2, 2), cfg, 300, 600,
		analytic.StepOptions{NewSim: newSim, Steps: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrationAllocations bounds what a quick calibration allocates.
// Its link evidence is five counters per link; a recorder attached to
// the reference runs would also log every packet event, ~640 MB in this
// shape, and break the bound.
func TestCalibrationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	quickCalibration(t, nil)
	runtime.ReadMemStats(&after)
	const bound = 200 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("quick calibration allocated %.1f MB", float64(got)/(1<<20))
	if got > bound {
		t.Fatalf("quick calibration allocated %d MB, bound %d MB", got>>20, bound>>20)
	}
}

// TestCalibrationAttachesNoRecorder: the calibration counts link traffic
// through Machine.OnLink, so no simulator it builds carries a metrics
// recorder.
func TestCalibrationAttachesNoRecorder(t *testing.T) {
	var sims []*sim.Sim
	quickCalibration(t, func() *sim.Sim {
		s := sim.New()
		sims = append(sims, s)
		return s
	})
	if len(sims) != 2 {
		t.Fatalf("calibration built %d simulators, want one per reference", len(sims))
	}
	for i, s := range sims {
		if metrics.FromSim(s) != nil {
			t.Errorf("calibration simulator %d carries a metrics recorder", i)
		}
	}
}
