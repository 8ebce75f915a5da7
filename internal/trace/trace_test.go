package trace

import (
	"fmt"
	"strings"
	"testing"

	"anton/internal/sim"
	"testing/quick"
)

func TestDegenerateSpans(t *testing.T) {
	tr := New()
	tr.Add(TS, 50, 50, "instant", false)
	tr.Add(TS, 60, 40, "negative", false)
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 (zero-width kept, inverted dropped): %v", len(spans), spans)
	}
	if spans[0].Label != "instant" || spans[0].Start != spans[0].End {
		t.Fatalf("retained span is not the zero-width one: %v", spans[0])
	}
	if got := tr.Occupancy(TS, 0, 100); got != 0 {
		t.Fatalf("zero-width span contributed busy time: %v", got)
	}
}

// TestTimelineInstantTick pins the regression where zero-width spans were
// silently dropped at Add time and so could never appear on a timeline: an
// instantaneous event (e.g. a counter firing) must render as a tick in its
// bucket rather than idle space.
func TestTimelineInstantTick(t *testing.T) {
	tr := New()
	us := sim.Time(sim.Us)
	tr.Add(TS, 0, us, "compute", false)
	tr.Add(GC, us+us/2, us+us/2, "counter fire", false)
	out := tr.Timeline(0, 2*us, sim.Us)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline has %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "||") {
		t.Fatalf("zero-width span not rendered as a tick: %q", lines[2])
	}
	if strings.Contains(lines[1], "||") {
		t.Fatalf("tick rendered in the wrong bucket: %q", lines[1])
	}
	// A tick never outranks real occupancy: the busy bucket stays '#'.
	if !strings.Contains(lines[1], "##") {
		t.Fatalf("busy bucket not rendered: %q", lines[1])
	}
}

func TestSpansSorted(t *testing.T) {
	tr := New()
	tr.Add(GC, 300, 400, "c", false)
	tr.Add(TS, 100, 200, "a", false)
	tr.Add(HTI, 200, 300, "b", false)
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans unsorted: %v", spans)
		}
	}
}

func TestOccupancyUnion(t *testing.T) {
	tr := New()
	// Two overlapping spans covering [0,60) and [40,100): union 100.
	tr.Add(LinkXPlus, 0, 60, "", false)
	tr.Add(LinkXPlus, 40, 100, "", false)
	if got := tr.Occupancy(LinkXPlus, 0, 100); got != 1.0 {
		t.Fatalf("occupancy = %v, want 1.0", got)
	}
	if got := tr.Occupancy(LinkXPlus, 0, 200); got != 0.5 {
		t.Fatalf("occupancy over double window = %v, want 0.5", got)
	}
	if got := tr.Occupancy(LinkYPlus, 0, 100); got != 0 {
		t.Fatalf("unused unit occupancy = %v", got)
	}
	if got := tr.Occupancy(LinkXPlus, 100, 100); got != 0 {
		t.Fatalf("empty window occupancy = %v", got)
	}
}

func TestOccupancyClipsToWindow(t *testing.T) {
	tr := New()
	tr.Add(TS, 0, 1000, "", false)
	if got := tr.Occupancy(TS, 400, 600); got != 1.0 {
		t.Fatalf("clipped occupancy = %v", got)
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := New()
	us := sim.Time(sim.Us)
	tr.Add(TS, 0, us, "position send", false)
	tr.Add(TS, us, 2*us, "wait for forces", true)
	tr.Add(LinkXPlus, 0, 2*us, "", false)
	out := tr.Timeline(0, 2*us, sim.Us)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline has %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "TS") || !strings.Contains(lines[0], "X+") {
		t.Fatalf("header missing units: %q", lines[0])
	}
	// First bucket: TS busy (#), second: TS stalled (.).
	if !strings.Contains(lines[1], "##") {
		t.Fatalf("busy bucket not rendered: %q", lines[1])
	}
	if !strings.Contains(lines[2], "..") {
		t.Fatalf("stall bucket not rendered: %q", lines[2])
	}
}

func TestPhases(t *testing.T) {
	tr := New()
	tr.Add(TS, 100, 200, "position send", false)
	tr.Add(GC, 150, 400, "position send", false)
	tr.Add(HTI, 300, 900, "range-limited", false)
	tr.Add(TS, 500, 600, "position send", false)
	phases := tr.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %v", phases)
	}
	if phases[0].Label != "position send" || phases[0].Start != 100 || phases[0].End != 600 {
		t.Fatalf("phase 0 = %+v", phases[0])
	}
	if phases[1].Label != "range-limited" || phases[1].Dur() != 600 {
		t.Fatalf("phase 1 = %+v", phases[1])
	}
}

func TestUnitNames(t *testing.T) {
	if TS.String() != "TS" || GC.String() != "GC" || HTI.String() != "HTIS" {
		t.Fatal("unit names wrong")
	}
	if LinkZMinus.String() != "Z-" {
		t.Fatalf("Z- name = %q", LinkZMinus)
	}
	if Unit(42).String() != "Unit(42)" {
		t.Fatal("unknown unit name wrong")
	}
}

// Property: occupancy always lies in [0, 1] for arbitrary span sets.
func TestOccupancyBoundedProperty(t *testing.T) {
	f := func(spans []struct{ S, D, U uint8 }) bool {
		tr := New()
		for _, sp := range spans {
			start := sim.Time(sp.S) * 10
			tr.Add(Unit(int(sp.U)%int(NumUnits)), start, start.Add(sim.Dur(sp.D)*10), "", sp.D%2 == 0)
		}
		for u := Unit(0); u < NumUnits; u++ {
			occ := tr.Occupancy(u, 0, 2560)
			if occ < 0 || occ > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every Timeline cell equals a cell computed picosecond by
// picosecond — the covered time of a bucket is the number of 1 ps steps
// some span (some non-stall span, for the busy fraction) covers, and a
// tick marks a zero-width span inside the bucket.
func TestTimelineMatchesPerPicosecond(t *testing.T) {
	f := func(spans []struct{ S, D, U uint8 }, from, width uint8) bool {
		tr := New()
		for _, sp := range spans {
			start := sim.Time(sp.S)
			tr.Add(Unit(int(sp.U)%(int(NumUnits)+1)), start, start.Add(sim.Dur(sp.D%40)), "", sp.D%3 == 0)
		}
		all := tr.Spans()
		lo, hi := sim.Time(from), sim.Time(from)+sim.Time(width)+1
		bucket := sim.Dur(width%17) + 1
		var b strings.Builder
		b.WriteString("      time |")
		for u := Unit(0); u < NumUnits; u++ {
			fmt.Fprintf(&b, "%4s|", u)
		}
		b.WriteByte('\n')
		for start := lo; start < hi; start = start.Add(bucket) {
			end := min(start.Add(bucket), hi)
			fmt.Fprintf(&b, "%8.2fus |", start.Us())
			for u := Unit(0); u < NumUnits; u++ {
				var busy, covered int
				tick := false
				for ps := start; ps < end; ps++ {
					var inBusy, inAll bool
					for _, s := range all {
						if s.Unit == u && s.Start <= ps && ps < s.End {
							inAll = true
							inBusy = inBusy || !s.Stall
						}
					}
					if inAll {
						covered++
					}
					if inBusy {
						busy++
					}
				}
				for _, s := range all {
					tick = tick || (s.Unit == u && s.Start == s.End && s.Start >= start && s.Start < end)
				}
				w := float64(end.Sub(start))
				cell := ' '
				switch {
				case float64(busy)/w >= 0.5:
					cell = '#'
				case float64(busy)/w > 0.05:
					cell = '+'
				case float64(covered)/w > 0.05:
					cell = '.'
				case tick:
					cell = '|'
				}
				fmt.Fprintf(&b, " %c%c |", cell, cell)
			}
			b.WriteByte('\n')
		}
		return tr.Timeline(lo, hi, bucket) == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
