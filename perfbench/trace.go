package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the exported function it calls. Parent is the index of the enclosing
// span (-1 at the root) and Op the timed op the call belongs to (-1 in
// set-up and in the checks after the loop).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	t.open = t.open[:n]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children count once, and
// a child that sticks out of its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarize totals spans by name, in order of first appearance.
func summarize(spans []span) []layerTime {
	self := selfTimes(spans)
	var out []layerTime
	at := map[string]int{}
	for i, s := range spans {
		k, ok := at[s.Name]
		if !ok {
			k = len(out)
			at[s.Name] = k
			out = append(out, layerTime{Name: s.Name})
		}
		out[k].Count++
		out[k].Total += s.dur()
		out[k].Self += self[i]
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}

// printSummary prints the per-name span table: calls, total and self
// time in milliseconds.
func printSummary(w io.Writer, workload string, spans []span) {
	fmt.Fprintf(w, "# %s spans: name calls total_ms self_ms\n", workload)
	for _, l := range summarize(spans) {
		fmt.Fprintf(w, "# %s span %s %d %.3f %.3f\n", workload, l.Name, l.Count,
			float64(l.Total)/1e6, float64(l.Self)/1e6)
	}
}
