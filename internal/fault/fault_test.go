package fault

import (
	"testing"

	"anton/internal/sim"
	"anton/internal/topo"
)

var xPlus = topo.Port{Dim: topo.X, Dir: +1}

// A zero-rate plan must be a perfect no-op: no draws, no extra latency,
// empty stats — this is what makes the fault-free models reproducible
// bit for bit under an installed (but inert) plan.
func TestZeroPlanIsInert(t *testing.T) {
	in := NewInjector(Plan{Seed: 99})
	for i := 0; i < 1000; i++ {
		if extra := in.LinkExtra(i%7, xPlus, 55650, sim.Time(i)); extra != 0 {
			t.Fatalf("zero plan added %v to a link traversal", extra)
		}
		if in.Drop(i%4, 0) {
			t.Fatal("zero plan dropped a message")
		}
		if d := in.NodeSlowExtra(i%7, 36000); d != 0 {
			t.Fatalf("zero plan slowed a node by %v", d)
		}
	}
	st := in.Stats()
	if st.Corrupts != 0 || st.Stalls != 0 || st.Drops != 0 || st.DownWaits != 0 || len(st.Links) != 0 {
		t.Fatalf("zero plan accumulated stats: %v", st)
	}
	if len(in.ctr) != 0 {
		t.Fatalf("zero plan consumed %d draw streams", len(in.ctr))
	}
	for _, ps := range in.links {
		if ps.corruptN != 0 || ps.stallN != 0 {
			t.Fatalf("zero plan drew on link %v", ps.link)
		}
	}
}

// A nil injector (no plan attached at all) behaves identically.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if extra := in.LinkExtra(0, xPlus, 55650, 0); extra != 0 {
		t.Fatalf("nil injector added %v", extra)
	}
	if in.Drop(0, 0) || in.NodeSlowExtra(0, 100) != 0 || in.DropTimeout() != 0 {
		t.Fatal("nil injector not inert")
	}
	if st := in.Stats(); st.Corrupts != 0 {
		t.Fatal("nil injector has stats")
	}
}

// The same (seed, plan) tuple must reproduce the identical decision
// sequence; a different seed must produce a different one.
func TestDrawSequenceDeterministicPerSeed(t *testing.T) {
	plan := Plan{Seed: 7, CorruptRate: 0.3, RetryLatency: 50 * sim.Ns, StallRate: 0.1, StallDur: 200 * sim.Ns, DropRate: 0.25, DropTimeout: 10 * sim.Us}
	seq := func(p Plan) []sim.Dur {
		in := NewInjector(p)
		var out []sim.Dur
		for i := 0; i < 500; i++ {
			out = append(out, in.LinkExtra(i%11, topo.Ports[i%6], 55650, sim.Time(i)))
			if in.Drop(i%5, 0) {
				out = append(out, -1)
			}
		}
		return out
	}
	a, b := seq(plan), seq(plan)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	plan2 := plan
	plan2.Seed = 8
	c := seq(plan2)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("changing the seed did not move any fault site in 500 draws")
	}
}

// Corruption rates near 1 must terminate (the retry cap) and charge
// retry turnaround plus re-serialization per retransmission.
func TestCorruptionRetryCost(t *testing.T) {
	service := sim.Dur(55650)
	in := NewInjector(Plan{Seed: 1, CorruptRate: 1, RetryLatency: 50 * sim.Ns})
	extra := in.LinkExtra(0, xPlus, service, 0)
	want := sim.Dur(maxRetries) * (50*sim.Ns + service)
	if extra != want {
		t.Fatalf("rate-1 corruption: extra %v, want capped %v", extra, want)
	}
	if st := in.Stats(); st.Corrupts != maxRetries {
		t.Fatalf("rate-1 corruption: %d retries recorded, want %d", st.Corrupts, maxRetries)
	}
}

// The Links selector restricts corruption and stalls to the named
// links; others see zero faults at any rate.
func TestLinkSelector(t *testing.T) {
	in := NewInjector(Plan{
		Seed: 3, CorruptRate: 1, RetryLatency: sim.Ns,
		Links: []Link{{Node: 2, Port: xPlus}},
	})
	if extra := in.LinkExtra(1, xPlus, 100, 0); extra != 0 {
		t.Fatalf("unlisted link faulted: %v", extra)
	}
	if extra := in.LinkExtra(2, topo.Port{Dim: topo.Y, Dir: -1}, 100, 0); extra != 0 {
		t.Fatalf("unlisted port faulted: %v", extra)
	}
	if extra := in.LinkExtra(2, xPlus, 100, 0); extra == 0 {
		t.Fatal("listed link did not fault at rate 1")
	}
	st := in.Stats()
	if len(st.Links) != 1 {
		t.Fatalf("fault sites %v, want exactly the listed link", st.Links)
	}
	if _, ok := st.Links[Link{Node: 2, Port: xPlus}]; !ok {
		t.Fatalf("fault sites %v missing 2:X+", st.Links)
	}
}

// Outage windows delay only traversals that begin inside the window,
// by exactly the time to recovery plus one retry turnaround.
func TestDownWindow(t *testing.T) {
	w := Window{Link: Link{Node: 0, Port: xPlus}, From: 1000, Until: 5000}
	in := NewInjector(Plan{Seed: 1, RetryLatency: 100, Down: []Window{w}})
	if extra := in.LinkExtra(0, xPlus, 10, 999); extra != 0 {
		t.Fatalf("traversal before the outage delayed by %v", extra)
	}
	if extra := in.LinkExtra(0, xPlus, 10, 5000); extra != 0 {
		t.Fatalf("traversal after recovery delayed by %v", extra)
	}
	if extra := in.LinkExtra(1, xPlus, 10, 2000); extra != 0 {
		t.Fatalf("other link delayed by %v", extra)
	}
	if extra := in.LinkExtra(0, xPlus, 10, 2000); extra != sim.Dur(3000+100) {
		t.Fatalf("mid-outage traversal delayed by %v, want 3100", extra)
	}
	if st := in.Stats(); st.DownWaits != 1 {
		t.Fatalf("downwaits %d, want 1", st.DownWaits)
	}
}

// Slow-node selection is a stable seed-chosen subset at roughly the
// configured rate, and the skew scales service time by SlowFactor.
func TestNodeSlowdown(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, SlowRate: 0.25, SlowFactor: 2})
	slow := 0
	for n := 0; n < 4096; n++ {
		a := in.NodeSlow(n)
		if a != in.NodeSlow(n) {
			t.Fatalf("node %d slow-selection not stable", n)
		}
		if a {
			slow++
			if extra := in.NodeSlowExtra(n, 36000); extra != 36000 {
				t.Fatalf("factor-2 skew on node %d added %v, want 36000", n, extra)
			}
		} else if extra := in.NodeSlowExtra(n, 36000); extra != 0 {
			t.Fatalf("fast node %d skewed by %v", n, extra)
		}
	}
	if slow < 800 || slow > 1250 {
		t.Fatalf("rate-0.25 selection picked %d/4096 nodes", slow)
	}
}

// Bernoulli draws track the configured rate within sampling error.
func TestBernoulliRate(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, DropRate: 0.1, DropTimeout: sim.Us})
	drops := 0
	for i := 0; i < 20000; i++ {
		if in.Drop(0, 0) {
			drops++
		}
	}
	if drops < 1800 || drops > 2200 {
		t.Fatalf("rate-0.1 drop stream produced %d/20000 drops", drops)
	}
}

// Attach/FromSim round-trip through the simulator attachment point.
func TestAttachFromSim(t *testing.T) {
	s := sim.New()
	if FromSim(s) != nil {
		t.Fatal("fresh sim has an injector")
	}
	in := Attach(s, Plan{Seed: 2, CorruptRate: 0.5})
	if FromSim(s) != in {
		t.Fatal("FromSim did not return the attached injector")
	}
	if FromSim(s).Plan().CorruptRate != 0.5 {
		t.Fatal("plan lost in attachment")
	}
}
