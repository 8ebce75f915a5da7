package sim

import "testing"

// chain schedules a self-perpetuating event chain: each firing schedules
// the next, total events, one per tick.
func chain(s *Sim, total int) *int {
	fired := 0
	var step func()
	step = func() {
		fired++
		if fired < total {
			s.After(1*Ns, step)
		}
	}
	s.After(1*Ns, step)
	return &fired
}

func TestAbortStopsSequentialRun(t *testing.T) {
	s := New()
	fired := chain(s, 100_000)
	s.SetAbortBatch(64)
	polls := 0
	s.SetAbort(func() bool {
		polls++
		return polls > 3 // abort on the 4th poll
	})
	s.Run()
	if !s.Aborted() {
		t.Fatal("Aborted() = false after abort hook fired")
	}
	// Exactly 3 full batches committed: the poll only ever decides between
	// batches, so the prefix length is a multiple of the batch size.
	if *fired != 3*64 {
		t.Fatalf("fired %d events, want exactly 3 batches of 64", *fired)
	}
	if s.Pending() == 0 {
		t.Fatal("abort should leave the chain's next event pending")
	}
}

func TestAbortStopsRunUntil(t *testing.T) {
	s := New()
	fired := chain(s, 100_000)
	s.SetAbortBatch(32)
	polls := 0
	s.SetAbort(func() bool { polls++; return polls > 2 })
	if s.RunUntil(Time(1_000_000 * Ns)) {
		t.Fatal("RunUntil reported drained on an aborted run")
	}
	if !s.Aborted() || *fired != 3*32 {
		t.Fatalf("aborted=%v fired=%d, want true / 96", s.Aborted(), *fired)
	}
	// The clock must sit at the last committed event, not the deadline:
	// the aborted state is a prefix, not a bounded run.
	if s.Now() != Time(96*Ns) {
		t.Fatalf("clock at %v after abort, want 96ns", s.Now())
	}
}

func TestAbortNeverFiresStaysIdentical(t *testing.T) {
	run := func(hook bool) (Time, uint64) {
		s := New()
		chain(s, 5000)
		if hook {
			s.SetAbortBatch(16)
			s.SetAbort(func() bool { return false })
		}
		return s.Run(), s.Fired()
	}
	t0, n0 := run(false)
	t1, n1 := run(true)
	if t0 != t1 || n0 != n1 {
		t.Fatalf("a never-firing hook changed the run: (%v,%d) vs (%v,%d)", t0, n0, t1, n1)
	}
}

func TestAbortedRunIsCleanPrefix(t *testing.T) {
	// The committed prefix of an aborted run must be byte-for-byte the
	// prefix of the full run: same events, same order, same clocks.
	trace := func(abortAfter int) []Time {
		s := New()
		var log []Time
		for i := 0; i < 300; i++ {
			s.After(Dur(i+1)*Ns, func() { log = append(log, s.Now()) })
		}
		if abortAfter > 0 {
			s.SetAbortBatch(abortAfter)
			polls := 0
			s.SetAbort(func() bool { polls++; return polls > 1 })
		}
		s.Run()
		return log
	}
	full := trace(0)
	partial := trace(100)
	if len(partial) != 100 {
		t.Fatalf("aborted run committed %d events, want 100", len(partial))
	}
	for i, at := range partial {
		if full[i] != at {
			t.Fatalf("prefix diverges at %d: %v vs %v", i, at, full[i])
		}
	}
}
