package sim

import (
	"math/rand"
	"testing"
)

// The fault layer's determinism contract rests on two kernel
// invariants: events are served in non-decreasing timestamp order, and
// events with equal timestamps fire in the order they were scheduled
// (FIFO on the sequence number), including events scheduled from inside
// other events. This test drives the kernel with a randomized but
// seeded workload — nested scheduling, duplicate timestamps, bursts at
// the same instant — and checks both invariants on the observed firing
// sequence, twice, asserting the two runs are identical.
func TestEventOrderInvariants(t *testing.T) {
	type fired struct {
		at    Time
		order int // scheduling order among events sharing a timestamp
	}
	run := func(seed int64) []fired {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var log []fired
		// perTime tracks, per timestamp, how many events have been
		// scheduled at it so far; each event records its index.
		perTime := map[Time]int{}
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			idx := perTime[at]
			perTime[at]++
			s.At(at, Func(func() {
				log = append(log, fired{at: at, order: idx})
				if depth < 3 && rng.Intn(3) == 0 {
					// Nested scheduling: same instant (exercises the
					// FIFO tie-break from within an event) or later.
					delay := Dur(rng.Intn(5)) * Ns
					schedule(s.Now().Add(delay), depth+1)
				}
			}))
		}
		for i := 0; i < 300; i++ {
			schedule(Time(rng.Intn(50))*Time(Ns), 0)
		}
		s.Run()
		return log
	}

	log := run(1)
	if len(log) < 300 {
		t.Fatalf("only %d events fired", len(log))
	}
	lastSeen := map[Time]int{}
	for i := 1; i < len(log); i++ {
		if log[i].at < log[i-1].at {
			t.Fatalf("event %d fired at %v after an event at %v: timestamps not monotone",
				i, log[i].at, log[i-1].at)
		}
	}
	for i, f := range log {
		if prev, ok := lastSeen[f.at]; ok && f.order <= prev {
			t.Fatalf("event %d at %v has scheduling index %d after index %d: same-time events out of insertion order",
				i, f.at, f.order, prev)
		}
		lastSeen[f.at] = f.order
	}

	// Bit-determinism: a replay of the same workload observes the same
	// firing sequence.
	replay := run(1)
	if len(replay) != len(log) {
		t.Fatalf("replay fired %d events, first run %d", len(replay), len(log))
	}
	for i := range log {
		if log[i] != replay[i] {
			t.Fatalf("replay diverged at event %d: %+v vs %+v", i, replay[i], log[i])
		}
	}
}

// Same-time FIFO holds under interleaved At/After calls from multiple
// nesting levels — the exact pattern the in-order delivery machinery
// and the fault layer's retry scheduling rely on.
func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var got []int
	at := Time(10 * Ns)
	for i := 0; i < 20; i++ {
		i := i
		s.At(at, Func(func() { got = append(got, i) }))
	}
	// An event before the burst that schedules three more events at the
	// burst instant: they must fire after the 20 already queued.
	s.At(5*Time(Ns), Func(func() {
		for j := 20; j < 23; j++ {
			j := j
			s.At(at, Func(func() { got = append(got, j) }))
		}
	}))
	s.Run()
	if len(got) != 23 {
		t.Fatalf("fired %d events, want 23", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired event %d: same-instant events out of FIFO order (%v)", i, v, got)
		}
	}
}
