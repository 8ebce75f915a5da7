package harness

import "testing"

// TestWorkersGoldenIdentity pins the determinism contract at the report
// level: the rendered experiment reports must be byte-identical whatever
// goroutine budget the session gives the sweeps and internal/par. fig6
// runs one 512-node simulator, metrics layers the full latency-recorder
// pipeline (sharded histograms, lifecycle traces) on top of it, and the
// fault sweeps layer the sweep pool, the fault injector, and watchdog
// recovery.
func TestWorkersGoldenIdentity(t *testing.T) {
	ids := []string{"fig6", "metrics", "faultsweep", "killsweep"}
	if testing.Short() {
		ids = ids[:3]
	}
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		want := e.RunWith(&Session{Workers: 1}, true)
		for _, w := range []int{2, 8} {
			if got := e.RunWith(&Session{Workers: w}, true); got != want {
				t.Fatalf("%s: workers=%d report differs from workers=1 report\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					id, w, want, w, got)
			}
		}
	}
}
