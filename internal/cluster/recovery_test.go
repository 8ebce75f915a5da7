package cluster

import (
	"testing"

	"anton/internal/fault"
	"anton/internal/metrics"
	"anton/internal/sim"
)

func hardCluster(t *testing.T, n int, plan string) *Cluster {
	t.Helper()
	s := sim.New()
	fault.Attach(s, fault.MustParsePlan(plan))
	return New(s, n, DDR2InfiniBand())
}

// A killed uplink costs one path-migration delay on the rank's next send
// and nothing afterwards.
func TestClusterUplinkFailover(t *testing.T) {
	base := func() sim.Dur {
		s := sim.New()
		c := New(s, 8, DDR2InfiniBand())
		var at sim.Time
		c.Send(3, 4, 32, func(tm sim.Time) { at = tm })
		s.Run()
		return sim.Dur(at)
	}()

	c := hardCluster(t, 8, "seed=1,killlink=3:X+@0ns")
	var first, second sim.Time
	c.Send(3, 4, 32, func(tm sim.Time) {
		first = tm
		c.Send(3, 4, 32, func(tm2 sim.Time) { second = tm2 })
	})
	c.Sim.Run()
	if first == 0 || second == 0 {
		t.Fatalf("sends after an uplink kill never delivered: %v", c.Recovery())
	}
	if got := sim.Dur(first); got != base+defaultFailover {
		t.Fatalf("first send after uplink kill took %v, want base %v + failover %v", got, base, defaultFailover)
	}
	if rec := c.Recovery(); rec.FailedOver != 1 || rec.Lost != 0 || rec.Degraded != 0 {
		t.Fatalf("one failover and nothing else expected: %v", rec)
	}
	// The second send runs on the migrated path at full speed: no
	// further failover penalty (it's back-to-back, so just the gap).
	if gap := second.Sub(first); gap > sim.Dur(base) {
		t.Fatalf("second send took %v after the first — secondary rail should be full speed", gap)
	}
}

// Messages to and from a dead rank are lost; an all-reduce including the
// dead rank still completes on every live rank, degraded.
func TestClusterAllReduceDeadRank(t *testing.T) {
	c := hardCluster(t, 8, "seed=1,killnode=5@0ns,wdog=5us")
	var at sim.Time
	c.AllReduce(32, func(tm sim.Time) { at = tm })
	c.Sim.Run()
	if at == 0 {
		t.Fatalf("all-reduce with a dead rank never completed: %v", c.Recovery())
	}
	rec := c.Recovery()
	if rec.Lost == 0 {
		t.Fatalf("dead rank's messages should be lost: %v", rec)
	}
	if rec.Degraded == 0 {
		t.Fatalf("waits on the dead rank should complete degraded: %v", rec)
	}
}

// The staged neighbour exchange and the FFT all-to-all also survive a
// dead rank (the Desmond long-range step composes all three patterns).
func TestClusterDesmondDeadRankCompletes(t *testing.T) {
	c := hardCluster(t, 64, "seed=1,killnode=9@0ns,wdog=5us")
	d := NewDesmond(c)
	var at sim.Time
	d.LongRangeComm(func(tm sim.Time) { at = tm })
	c.Sim.Run()
	if at == 0 {
		t.Fatalf("Desmond long-range step with a dead rank never completed: %v", c.Recovery())
	}
	if rec := c.Recovery(); rec.Degraded == 0 {
		t.Fatalf("expected degraded collective waits: %v", rec)
	}
}

// Recovery is deterministic: identical kill plans produce identical
// completion times and tallies, and recording the run changes neither.
func TestClusterRecoveryDeterministic(t *testing.T) {
	run := func(rec *metrics.Recorder) (sim.Time, RecoveryStats) {
		c := hardCluster(t, 16, "seed=2,killnode=3@1us,killlink=7:Y-@0ns,wdog=5us")
		c.Metrics = rec
		var at sim.Time
		c.AllReduce(64, func(tm sim.Time) { at = tm })
		c.Sim.Run()
		return at, c.Recovery()
	}
	t1, r1 := run(nil)
	t2, r2 := run(nil)
	if t1 != t2 || r1 != r2 {
		t.Fatalf("nondeterministic cluster recovery: (%v, %v) vs (%v, %v)", t1, r1, t2, r2)
	}
	rec := metrics.New()
	if t3, r3 := run(rec); t3 != t1 || r3 != r1 {
		t.Fatalf("recording changed the cluster recovery: (%v, %v) vs (%v, %v)", t3, r3, t1, r1)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("the recorder saw no events")
	}
}

// A plan without kills leaves the hard path disabled entirely: the
// all-reduce completes at exactly the fault-free time with zero tallies.
func TestClusterKillFreeIdentity(t *testing.T) {
	run := func(plan string) sim.Time {
		s := sim.New()
		if plan != "" {
			fault.Attach(s, fault.MustParsePlan(plan))
		}
		c := New(s, 8, DDR2InfiniBand())
		var at sim.Time
		c.AllReduce(32, func(tm sim.Time) { at = tm })
		s.Run()
		if rec := c.Recovery(); rec != (RecoveryStats{}) {
			t.Fatalf("kill-free plan produced recovery tallies: %v", rec)
		}
		return at
	}
	if a, b := run(""), run("seed=7"); a != b {
		t.Fatalf("kill-free plan perturbed the all-reduce: %v vs %v", a, b)
	}
}
