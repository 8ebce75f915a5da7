// Package trace is the software counterpart of Anton's logic analyzer: an
// on-chip diagnostic facility the authors used to monitor ASIC activity
// (Figure 13). Models record activity spans per unit class; the renderer
// produces a textual timeline with one column per unit class, mirroring
// the paper's figure: torus-link traffic on the left, computational units
// (Tensilica cores, geometry cores, HTIS) on the right, with stall time
// distinguished from useful work.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"anton/internal/sim"
)

// Unit identifies a class of hardware unit whose activity is traced.
type Unit int

// The unit classes of Figure 13: six torus link directions, the Tensilica
// cores, the geometry cores, and the HTIS units.
const (
	LinkXPlus Unit = iota
	LinkXMinus
	LinkYPlus
	LinkYMinus
	LinkZPlus
	LinkZMinus
	TS  // Tensilica cores
	GC  // geometry cores
	HTI // HTIS units
	NumUnits
)

var unitNames = [NumUnits]string{"X+", "X-", "Y+", "Y-", "Z+", "Z-", "TS", "GC", "HTIS"}

func (u Unit) String() string {
	if u >= 0 && u < NumUnits {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// Span is one recorded activity interval.
type Span struct {
	Unit  Unit
	Start sim.Time
	End   sim.Time
	// Label names the activity (e.g. "position send", "range-limited").
	Label string
	// Stall marks time a unit spent waiting for data (light gray in the
	// paper's figure).
	Stall bool
}

// Tracer accumulates spans.
type Tracer struct {
	spans []Span
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Add records a span. Inverted spans (end before start) are dropped;
// zero-width spans (end == start) are kept — they mark instantaneous
// events such as a counter firing, contribute no busy time, and render
// as a single tick on the timeline.
func (t *Tracer) Add(u Unit, start, end sim.Time, label string, stall bool) {
	if end < start {
		return
	}
	t.spans = append(t.spans, Span{Unit: u, Start: start, End: end, Label: label, Stall: stall})
}

// Spans returns all recorded spans sorted by start time.
func (t *Tracer) Spans() []Span {
	out := append([]Span(nil), t.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Occupancy returns the fraction of [from, to] during which unit u has at
// least one span active (union of intervals, so overlapping spans are not
// double counted).
func (t *Tracer) Occupancy(u Unit, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var c cover
	for _, s := range t.Spans() {
		if s.Unit == u {
			c.add(s)
		}
	}
	return float64(c.within(from, to)) / float64(to.Sub(from))
}

// Timeline renders the Figure 13-style textual timeline: rows are time
// buckets of the given width, columns are unit classes. Each cell shows
// '#' when the unit is mostly busy with useful work, '+' when partially
// busy, '.' when mostly stalled, and ' ' when idle.
//
// The spans are sorted once and folded into each unit's busy union
// (useful work only) and all-span union; every cell then measures those
// unions over its bucket.
func (t *Tracer) Timeline(from, to sim.Time, bucket sim.Dur) string {
	var busy, all [NumUnits]cover
	var instants [NumUnits][]sim.Time
	for _, s := range t.Spans() {
		if s.Unit < 0 || s.Unit >= NumUnits {
			continue
		}
		if s.Start == s.End {
			instants[s.Unit] = append(instants[s.Unit], s.Start)
		}
		all[s.Unit].add(s)
		if !s.Stall {
			busy[s.Unit].add(s)
		}
	}
	var b strings.Builder
	b.WriteString("      time |")
	for u := Unit(0); u < NumUnits; u++ {
		fmt.Fprintf(&b, "%4s|", u)
	}
	b.WriteByte('\n')
	for start := from; start < to; start = start.Add(bucket) {
		end := start.Add(bucket)
		if end > to {
			end = to
		}
		width := float64(end.Sub(start))
		fmt.Fprintf(&b, "%8.2fus |", start.Us())
		for u := Unit(0); u < NumUnits; u++ {
			busyFrac := float64(busy[u].within(start, end)) / width
			allFrac := float64(all[u].within(start, end)) / width
			cell := ' '
			switch {
			case busyFrac >= 0.5:
				cell = '#'
			case busyFrac > 0.05:
				cell = '+'
			case allFrac > 0.05:
				cell = '.'
			case hasInstant(instants[u], start, end):
				// A zero-width span covers no time but still happened
				// here: render it as a single tick rather than idle.
				cell = '|'
			}
			fmt.Fprintf(&b, " %c%c |", cell, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cover is a union of spans: disjoint intervals in time order. Spans
// must be added in order of their start.
type cover []Span

func (c *cover) add(s Span) {
	if n := len(*c); n > 0 && s.Start <= (*c)[n-1].End {
		(*c)[n-1].End = max((*c)[n-1].End, s.End)
		return
	}
	*c = append(*c, Span{Start: s.Start, End: s.End})
}

// within returns how much of [from, to] the union covers.
func (c cover) within(from, to sim.Time) sim.Dur {
	var covered sim.Dur
	i := sort.Search(len(c), func(i int) bool { return c[i].End > from })
	for ; i < len(c) && c[i].Start < to; i++ {
		covered += min(c[i].End, to).Sub(max(c[i].Start, from))
	}
	return covered
}

// hasInstant reports whether any of the sorted times lies in [from, to).
func hasInstant(times []sim.Time, from, to sim.Time) bool {
	i := sort.Search(len(times), func(i int) bool { return times[i] >= from })
	return i < len(times) && times[i] < to
}

// Phases summarizes the labelled activity: for each distinct label, the
// earliest start and latest end across all units, in chronological order
// of first appearance. This reproduces the right-hand annotations of
// Figure 13 ("position send", "range-limited interactions", ...).
func (t *Tracer) Phases() []PhaseSummary {
	order := []string{}
	agg := map[string]*PhaseSummary{}
	for _, s := range t.Spans() {
		if s.Label == "" {
			continue
		}
		ps, ok := agg[s.Label]
		if !ok {
			ps = &PhaseSummary{Label: s.Label, Start: s.Start, End: s.End}
			agg[s.Label] = ps
			order = append(order, s.Label)
			continue
		}
		if s.Start < ps.Start {
			ps.Start = s.Start
		}
		if s.End > ps.End {
			ps.End = s.End
		}
	}
	out := make([]PhaseSummary, 0, len(order))
	for _, label := range order {
		out = append(out, *agg[label])
	}
	return out
}

// PhaseSummary is the aggregate extent of one labelled activity.
type PhaseSummary struct {
	Label string
	Start sim.Time
	End   sim.Time
}

// Dur returns the phase's extent.
func (p PhaseSummary) Dur() sim.Dur { return p.End.Sub(p.Start) }
