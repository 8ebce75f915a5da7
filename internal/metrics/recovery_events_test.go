package metrics_test

import (
	"strings"
	"testing"

	"anton/internal/fault"
	"anton/internal/machine"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// recoveryRun streams n 256-byte counted writes (0,0,0) -> (1,0,0) on a
// 4x4x4 machine under plan, optionally with a recorder, and returns the
// recorder (nil if record is false), the completion time, and the
// destination's memory.
func recoveryRun(plan string, n int, record bool) (*metrics.Recorder, sim.Time, []float64) {
	s := sim.New()
	fault.Attach(s, fault.MustParsePlan(plan))
	m := machine.New(s, topo.NewTorus(4, 4, 4), noc.DefaultModel())
	if record {
		m.Metrics = metrics.New()
	}
	a := packet.Client{Node: m.Torus.ID(topo.C(0, 0, 0)), Kind: packet.Slice0}
	b := packet.Client{Node: m.Torus.ID(topo.C(1, 0, 0)), Kind: packet.Slice0}
	var done sim.Time = -1
	m.Client(b).Wait(7, uint64(n), func() { done = s.Now() })
	for i := 0; i < n; i++ {
		m.Client(a).Write(b, 7, i, 256, float64(i))
	}
	s.Run()
	return m.Metrics, done, m.Client(b).Mem(0, n)
}

// countKinds tallies the recovery-related event kinds in a stream.
func countKinds(events []metrics.Event) map[metrics.EventKind]int {
	got := map[metrics.EventKind]int{}
	for _, e := range events {
		switch e.Kind {
		case metrics.EvPacketLost, metrics.EvWatchdogFire, metrics.EvReissue, metrics.EvDegraded:
			got[e.Kind]++
		}
	}
	return got
}

// TestRecoveryEventsInLifecycleStream pins the observability of hard-
// failure recovery: a link killed mid-stream must surface packet-lost,
// watchdog-fire, and reissue events in the recorder's stream, and a
// dead-node degraded wait must surface a degraded event — each also
// rendered as an instant event in the chrome trace.
func TestRecoveryEventsInLifecycleStream(t *testing.T) {
	// Mid-flight link kill: losses are recoverable, so the watchdog
	// re-issues them and nothing degrades.
	rec, done, _ := recoveryRun("seed=1,killlink=0:X+@1us,wdog=5us", 40, true)
	if done < 0 {
		t.Fatal("killed-link stream never completed")
	}
	got := countKinds(rec.Events())
	if got[metrics.EvPacketLost] == 0 || got[metrics.EvWatchdogFire] == 0 || got[metrics.EvReissue] == 0 {
		t.Fatalf("killed-link run missing recovery events: lost=%d wdog=%d reissue=%d",
			got[metrics.EvPacketLost], got[metrics.EvWatchdogFire], got[metrics.EvReissue])
	}
	if got[metrics.EvReissue] != got[metrics.EvPacketLost] {
		t.Errorf("reissues %d != losses %d: every recoverable loss must be re-sent",
			got[metrics.EvReissue], got[metrics.EvPacketLost])
	}
	if got[metrics.EvDegraded] != 0 {
		t.Errorf("recoverable losses must not emit degraded events, got %d", got[metrics.EvDegraded])
	}
	trace := string(rec.ChromeTrace())
	for _, want := range []string{"lost pkt", "watchdog ctr", "reissue pkt"} {
		if !strings.Contains(trace, want) {
			t.Errorf("chrome trace missing %q instant events", want)
		}
	}

	// Dead destination: losses are unrecoverable, the wait completes
	// degraded, and the trace says so.
	rec, done, _ = recoveryRun("seed=1,killnode=16@0ns,wdog=2us", 4, true)
	if done < 0 {
		t.Fatal("dead-node wait never completed")
	}
	got = countKinds(rec.Events())
	if got[metrics.EvDegraded] == 0 || got[metrics.EvPacketLost] == 0 {
		t.Fatalf("dead-node run missing events: lost=%d degraded=%d",
			got[metrics.EvPacketLost], got[metrics.EvDegraded])
	}
	if !strings.Contains(string(rec.ChromeTrace()), "degraded ctr") {
		t.Error("chrome trace missing degraded instant event")
	}
}

// TestRecoveryRecordingZeroOverhead pins that observing a recovery
// changes nothing about it: the killed-link run's completion time and
// recovered memory contents are bit-identical with and without a
// recorder.
func TestRecoveryRecordingZeroOverhead(t *testing.T) {
	_, plainDone, plainMem := recoveryRun("seed=1,killlink=0:X+@1us,wdog=5us", 40, false)
	_, recDone, recMem := recoveryRun("seed=1,killlink=0:X+@1us,wdog=5us", 40, true)
	if plainDone != recDone {
		t.Fatalf("recording changed the recovery completion time: %d vs %d ps",
			int64(recDone), int64(plainDone))
	}
	for i := range plainMem {
		if plainMem[i] != recMem[i] {
			t.Fatalf("recording changed recovered memory word %d: %v vs %v", i, recMem[i], plainMem[i])
		}
	}
}
