package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestUnitsAndConversions(t *testing.T) {
	if Ns != 1000*Ps || Us != 1000*Ns || Ms != 1000*Us {
		t.Fatal("unit constants inconsistent")
	}
	if got := (162 * Ns).Ns(); got != 162 {
		t.Fatalf("Dur.Ns = %v, want 162", got)
	}
	if got := Time(1_500_000).Us(); got != 1.5 {
		t.Fatalf("Time.Us = %v, want 1.5", got)
	}
	if got := NsDur(8.8); got != 8800 {
		t.Fatalf("NsDur(8.8) = %v, want 8800", got)
	}
	if Time(2500).Add(500).Sub(Time(2500)) != 500 {
		t.Fatal("Add/Sub roundtrip failed")
	}
	if s := (5 * Ns).String(); s != "5.000ns" {
		t.Fatalf("Dur.String = %q", s)
	}
	if s := Time(1234).String(); s != "1.234ns" {
		t.Fatalf("Time.String = %q", s)
	}
}

// An event is a time and a handler, 24 bytes: same-instant order comes
// from the queue's append order, so no sequence number is stored.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("event is %d bytes, want at most 24", size)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, d := range []Dur{50, 10, 30, 20, 40} {
		d := d
		s.After(d, Func(func() { got = append(got, s.Now()) }))
	}
	s.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 || got[0] != 10 || got[4] != 50 {
		t.Fatalf("unexpected event times: %v", got)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(42, Func(func() { order = append(order, i) }))
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var rec Func
	rec = func() {
		depth++
		if depth < 1000 {
			s.After(1, rec)
		}
	}
	s.After(1, rec)
	end := s.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if end != 1000 {
		t.Fatalf("end time = %v, want 1000", end)
	}
	if s.Fired() != 1000 {
		t.Fatalf("Fired = %d, want 1000", s.Fired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(100, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(50, Func(func() {}))
	}))
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	s.After(-1, Func(func() {}))
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	for _, d := range []Dur{10, 20, 30, 40} {
		s.After(d, Func(func() { fired++ }))
	}
	if s.RunUntil(25) {
		t.Fatal("RunUntil claimed drained with events pending")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("now = %v, want 25", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	if !s.RunFor(100) {
		t.Fatal("RunFor should drain queue")
	}
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
}

// Property: for any batch of non-negative delays, Run visits them in
// nondecreasing time order and ends at the max delay.
func TestRunOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var visited []Time
		var max Dur
		for _, d16 := range delays {
			d := Dur(d16)
			if d > max {
				max = d
			}
			s.After(d, Func(func() { visited = append(visited, s.Now()) }))
		}
		end := s.Run()
		if len(delays) > 0 && end != Time(max) {
			return false
		}
		return sort.SliceIsSorted(visited, func(i, j int) bool { return visited[i] < visited[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	s := New()
	r := NewResource(s)
	var starts []Time
	// Three back-to-back acquisitions of 100 ps each at t=0.
	for i := 0; i < 3; i++ {
		r.Acquire(100, Func(func() { starts = append(starts, s.Now()) }))
	}
	s.Run()
	want := []Time{0, 100, 200}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
	if r.BusyTime() != 300 {
		t.Fatalf("busy = %v, want 300", r.BusyTime())
	}
	if r.Uses() != 3 {
		t.Fatalf("uses = %d, want 3", r.Uses())
	}
}

func TestResourceIdleGap(t *testing.T) {
	s := New()
	r := NewResource(s)
	r.Acquire(10, nil)
	s.After(100, Func(func() {
		start := r.Acquire(10, nil)
		if start != 100 {
			t.Errorf("start after idle gap = %v, want 100", start)
		}
	}))
	s.Run()
	if r.FreeAt() != 110 {
		t.Fatalf("FreeAt = %v, want 110", r.FreeAt())
	}
}

// Property: resource service intervals never overlap and respect FIFO order
// regardless of the arrival pattern.
func TestResourceNoOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s := New()
		r := NewResource(s)
		n := 1 + rng.Intn(40)
		type span struct{ start, end Time }
		var spans []span
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(500))
			service := Dur(1 + rng.Intn(50))
			s.At(at, Func(func() {
				r.Acquire(service, Func(func() {
					st := s.Now()
					spans = append(spans, span{st, st.Add(service)})
				}))
			}))
		}
		s.Run()
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				t.Fatalf("trial %d: overlapping service spans %v then %v", trial, spans[i-1], spans[i])
			}
		}
	}
}

func TestCounterThresholdWait(t *testing.T) {
	s := New()
	c := NewCounter(s)
	var firedAt Time = -1
	c.Wait(3, 36*Ns, func() { firedAt = s.Now() })
	for i := 1; i <= 3; i++ {
		d := Dur(i) * 100 * Ns
		s.At(Time(d), Func(func() { c.Inc() }))
	}
	s.Run()
	want := Time(300*Ns + 36*Ns)
	if firedAt != want {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
	if c.Value() != 3 {
		t.Fatalf("value = %d, want 3", c.Value())
	}
}

func TestCounterAlreadySatisfied(t *testing.T) {
	s := New()
	c := NewCounter(s)
	c.Add(5)
	var fired bool
	s.After(10, Func(func() {
		c.Wait(5, 7, func() {
			fired = true
			if s.Now() != 17 {
				t.Errorf("fired at %v, want 17", s.Now())
			}
		})
	}))
	s.Run()
	if !fired {
		t.Fatal("satisfied wait never fired")
	}
}

func TestCounterMultipleWaiters(t *testing.T) {
	s := New()
	c := NewCounter(s)
	fired := make(map[uint64]Time)
	for _, target := range []uint64{2, 4, 6} {
		target := target
		c.Wait(target, 0, func() { fired[target] = s.Now() })
	}
	for i := 1; i <= 6; i++ {
		s.At(Time(i*10), Func(func() { c.Inc() }))
	}
	s.Run()
	for target, at := range fired {
		if want := Time(target * 10); at != want {
			t.Fatalf("target %d fired at %v, want %v", target, at, want)
		}
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d waiters, want 3", len(fired))
	}
}

func TestCounterResetPanicsWithWaiters(t *testing.T) {
	s := New()
	c := NewCounter(s)
	c.Wait(1, 0, func() {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Reset with waiters")
		}
	}()
	c.Reset()
}

func TestCounterResetAfterPhase(t *testing.T) {
	s := New()
	c := NewCounter(s)
	c.Wait(2, 0, func() {})
	c.Add(2)
	s.Run()
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("value after reset = %d", c.Value())
	}
}

// Determinism: two identical runs produce identical event interleavings.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := New()
		var log []int
		rng := rand.New(rand.NewSource(123))
		for i := 0; i < 500; i++ {
			i := i
			s.At(Time(rng.Intn(100)), Func(func() { log = append(log, i) }))
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	var next Func
	count := 0
	next = func() {
		count++
		if count < b.N {
			s.After(1, next)
		}
	}
	s.After(1, next)
	b.ResetTimer()
	s.Run()
}
