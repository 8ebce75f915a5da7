package sim

import (
	"math/rand"
	"testing"
)

// seqHandler is the handler the queue tests push: it carries the push's
// sequence number, so every pop can be checked against the reference
// heap's (at, seq) order. The kernel itself stores no sequence number.
type seqHandler uint64

func (seqHandler) Fire() {}

// refEvent is an event as the reference heap orders it.
type refEvent struct {
	at  Time
	seq uint64
}

// before is the canonical event order: timestamp, then scheduling order
// (FIFO among same-instant events).
func (e *refEvent) before(o *refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap over the canonical order: the reference
// queue the radix queue is checked against.
type eventHeap []refEvent

func (h *eventHeap) push(e refEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() refEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && s[l].before(&s[least]) {
			least = l
		}
		if r < n && s[r].before(&s[least]) {
			least = r
		}
		if least == i {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// queuePair drives the radix queue and the reference eventHeap with one
// operation stream and fails on the first pop or peek where they differ.
type queuePair struct {
	t      *testing.T
	rq     radixQueue
	h      eventHeap
	now    Time // no push may go earlier, as in the kernel
	lastAt Time // the most recent push, for same-instant ties
	seq    uint64
}

// maxStreamTime caps pushed times so far-future offsets cannot overflow.
const maxStreamTime = Time(1) << 62

func (p *queuePair) push(at Time) {
	if at > maxStreamTime {
		at = maxStreamTime
	}
	if at < p.now {
		at = p.now
	}
	p.seq++
	p.rq.push(event{at: at, h: seqHandler(p.seq)})
	p.h.push(refEvent{at: at, seq: p.seq})
	p.lastAt = at
}

func (p *queuePair) pop() {
	if len(p.h) == 0 {
		return
	}
	got, want := p.rq.pop(), p.h.pop()
	if seq := uint64(got.h.(seqHandler)); got.at != want.at || seq != want.seq {
		p.t.Fatalf("pop = (%d, %d), heap pops (%d, %d)", got.at, seq, want.at, want.seq)
	}
	p.now = got.at
}

func (p *queuePair) peek() {
	if len(p.h) == 0 {
		return
	}
	if got, want := p.rq.min(), p.h[0].at; got != want {
		p.t.Fatalf("min = %d, heap head at %d", got, want)
	}
}

// advance peeks, then moves now part of the way to the earliest pending
// event without popping it, as RunUntil does when it stops at a deadline
// short of it.
func (p *queuePair) advance(frac byte) {
	if len(p.h) == 0 {
		p.now += Time(frac)
		return
	}
	p.peek()
	p.now += (p.h[0].at - p.now) / 256 * Time(frac)
}

// runQueueStream interprets ops as (opcode, argument) byte pairs, applies
// them to both queues, and finally drains both, so every stream checks
// the complete pop order. Opcode 10 is a no-op: it once reloaded the
// queue, and keeping the modulus keeps the checked-in FuzzEventQueue
// streams' meaning.
func runQueueStream(t *testing.T, ops []byte) {
	p := &queuePair{t: t}
	for i := 0; i+1 < len(ops); i += 2 {
		arg := ops[i+1]
		switch ops[i] % 11 {
		case 0: // zero delay
			p.push(p.now)
		case 1: // same instant as the previous push
			p.push(p.lastAt)
		case 2: // sub-nanosecond delay
			p.push(p.now + Time(arg))
		case 3: // the 32.8-131 ns band that dominates the DHFR step
			p.push(p.now + 32_768 + Time(arg)*385)
		case 4: // one tick either side of a power-of-two boundary
			k := arg % 48
			p.push((p.now>>k+1)<<k + Time(arg/48%3) - 1)
		case 5: // far future, at least 2^40 ps out
			p.push(p.now + Time(1)<<(40+arg%20) + Time(arg))
		case 6:
			p.pop()
		case 7:
			p.peek()
		case 8: // empty the queue mid-stream
			for len(p.h) > 0 {
				p.pop()
			}
		case 9:
			p.advance(arg)
		}
		if p.rq.n != len(p.h) {
			t.Fatalf("op %d: %d pending, heap holds %d", i/2, p.rq.n, len(p.h))
		}
	}
	for len(p.h) > 0 {
		p.pop()
	}
}

// The radix queue must pop exactly the reference heap's (at, seq) order on
// random streams. In every second stream drains are made rare, so over a
// thousand events can be pending. The FuzzEventQueue corpus adds one
// stream per case: same-instant ties, power-of-two boundaries, far-future
// times, mid-stream drains and RunUntil-style advances.
func TestRadixQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 2*(1+rng.Intn(2000)))
		rng.Read(ops)
		for j := 0; i%2 == 1 && j < len(ops); j += 2 {
			if ops[j]%11 == 8 && rng.Intn(200) > 0 {
				ops[j] = 3
			}
		}
		runQueueStream(t, ops)
	}
}

// FuzzEventQueue is the differential fuzz target for the radix queue. Its
// seed corpus lives in testdata/fuzz/FuzzEventQueue; ci.sh replays it under
// the race detector.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) { runQueueStream(t, ops) })
}

// A RunUntil that stops short of the next event must not advance the
// queue to that event's time: an At between the deadline and the event
// would otherwise fall into a bucket that pops after it.
func TestRunUntilPeekKeepsQueueFloor(t *testing.T) {
	s := New()
	var got []Time
	s.At(1000, Func(func() { got = append(got, s.Now()) }))
	if s.RunUntil(500) {
		t.Fatal("RunUntil(500) drained with an event at 1000 pending")
	}
	if s.Now() != 500 {
		t.Fatalf("now = %d after RunUntil(500), want 500", s.Now())
	}
	s.At(600, Func(func() { got = append(got, s.Now()) }))
	s.Run()
	if len(got) != 2 || got[0] != 600 || got[1] != 1000 {
		t.Fatalf("fired at %v, want [600 1000]", got)
	}
}

// The queue must carry its pending events intact across RunUntil stops,
// an abort and a resume: clearing the hook and running again must fire
// exactly the uninterrupted order.
func TestQueueReloadAbortResume(t *testing.T) {
	ref := New()
	want := treeWorkload(ref, 5, 300)
	ref.Run()

	s := New()
	got := treeWorkload(s, 5, 300)
	s.RunUntil(Time(20 * Ns))
	if s.Pending() == 0 {
		t.Fatal("no events pending after RunUntil(20ns)")
	}
	s.RunUntil(Time(60 * Ns))
	if s.Pending() == 0 {
		t.Fatal("no events pending after RunUntil(60ns)")
	}
	s.SetAbortBatch(16)
	polls := 0
	s.SetAbort(func() bool { polls++; return polls > 2 })
	s.Run()
	if !s.Aborted() || s.Pending() == 0 {
		t.Fatalf("aborted = %v with %d pending, want an abort mid-run", s.Aborted(), s.Pending())
	}
	s.SetAbort(nil)
	s.Run()
	if len(*got) != len(*want) {
		t.Fatalf("fired %d events, uninterrupted run fired %d", len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			t.Fatalf("event %d differs from the uninterrupted run", i)
		}
	}
}

// treeWorkload schedules n root events whose handlers spawn children at
// random delays, zero included, so same-instant ties and events scheduled
// mid-run both occur. The returned pointer observes the ids of the fired
// events, in firing order.
func treeWorkload(s *Sim, seed int64, n int) *[]int {
	rng := rand.New(rand.NewSource(seed))
	log := new([]int)
	id := 0
	var spawn func(d Dur, depth int)
	spawn = func(d Dur, depth int) {
		id++
		me := id
		s.After(d, Func(func() {
			*log = append(*log, me)
			for k := 0; k < 2; k++ {
				if depth < 4 && rng.Intn(10) < 6 {
					spawn(Dur(rng.Intn(3))*Dur(rng.Int63n(int64(40*Ns))), depth+1)
				}
			}
		}))
	}
	for i := 0; i < n; i++ {
		spawn(Dur(rng.Int63n(int64(100*Ns))), 0)
	}
	return log
}

// deepDelays draws n scheduling delays from the mix measured on the DHFR
// step workload: 16% zero, 12% under 32.8 ns, 59% in 32.8-131 ns and 13%
// in 0.13-2.1 us.
func deepDelays(rng *rand.Rand, n int) []Dur {
	d := make([]Dur, n)
	for i := range d {
		switch r := rng.Intn(100); {
		case r < 16:
		case r < 28:
			d[i] = Dur(1 + rng.Int63n(1<<15))
		case r < 87:
			d[i] = Dur(1<<15 + rng.Int63n(1<<17-1<<15))
		default:
			d[i] = Dur(1<<17 + rng.Int63n(1<<21-1<<17))
		}
	}
	return d
}

// retained returns the total slice capacity q's buckets hold, in events.
func retained(q *radixQueue) int {
	c := 0
	for _, b := range q.b {
		c += cap(b)
	}
	return c
}

// Repeated identical bursts must not grow the queue's retained storage
// past the ceiling its doc comment states, and every slot a fired event
// vacated must be cleared so its handler can be collected.
func TestRadixQueueRetainedBounded(t *testing.T) {
	delays := deepDelays(rand.New(rand.NewSource(2)), 1<<12)
	s := New()
	peak, i := 0, 0
	var hop func(left int) Func
	hop = func(left int) Func {
		return func() {
			peak = max(peak, s.Pending())
			if left > 0 {
				i++
				s.After(delays[i%len(delays)], hop(left-1))
			}
		}
	}
	for burst := 0; burst < 120; burst++ {
		i = 0 // the same delays every burst; only the start time moves
		for c := 0; c < 2000; c++ {
			i++
			s.After(delays[i%len(delays)], hop(4))
		}
		s.Run()
		if ret := retained(&s.events); ret > 2*65*peak {
			t.Fatalf("burst %d: %d events retained, ceiling 130 x peak %d", burst, ret, peak)
		}
		for k, b := range s.events.b {
			for _, e := range b[:cap(b)] {
				if e.h != nil {
					t.Fatalf("burst %d: bucket %d keeps a fired handler", burst, k)
				}
			}
		}
	}
	t.Logf("peak %d pending, %d events retained", peak, retained(&s.events))
}

// BenchmarkEventQueueDeep fires b.N events through the kernel with
// 12,288 pending, about the mean depth per pop on the DHFR step workload,
// and delays drawn from that workload's mix.
// BenchmarkEventThroughput runs at depth 1 and cannot see queue structure.
func BenchmarkEventQueueDeep(b *testing.B) {
	const depth = 12_288
	delays := deepDelays(rand.New(rand.NewSource(1)), 1<<12)
	s := New()
	scheduled := 0
	var fire Func
	fire = func() {
		if scheduled < b.N {
			scheduled++
			s.After(delays[scheduled%len(delays)], fire)
		}
	}
	for scheduled < min(depth, b.N) {
		scheduled++
		s.After(delays[scheduled%len(delays)], fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.ReportMetric(float64(s.Fired())/b.Elapsed().Seconds(), "events/s")
}
