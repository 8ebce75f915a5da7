package harness

import "testing"

// Every experiment report must be byte-identical no matter how many
// goroutines the sweeps use: each sweep point owns a private simulator
// instance and rows are assembled in index order.
func TestSweepReportsWorkerIndependent(t *testing.T) {
	ids := []string{"fastpath", "ablate-allreduce", "fig7", "faultsweep", "killsweep", "fig5"}
	if testing.Short() {
		ids = ids[:5]
	}
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		want := e.RunWith(&Session{Workers: 1}, true)
		for _, w := range []int{4, 0} {
			if got := e.RunWith(&Session{Workers: w}, true); got != want {
				t.Fatalf("%s: workers=%d report differs from sequential report\n--- sequential ---\n%s\n--- workers=%d ---\n%s",
					id, w, want, w, got)
			}
		}
	}
}

func TestTable3SweepWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several 512-node mappings; run without -short")
	}
	sizes := []int{5000}
	want := Table3Sweep(&Session{Workers: 1}, sizes)
	got := Table3Sweep(&Session{Workers: 4}, sizes)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("size %d: step time %v, want %v", sizes[i], got[i], want[i])
		}
	}
}
