package harness

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"anton/internal/cluster"
	"anton/internal/collective"
	"anton/internal/machine"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// Artifacts is the full output of the metrics experiment: the rendered
// text report plus the machine-readable BENCH_metrics.json payload and a
// chrome://tracing export of a small scripted run. All three are
// byte-deterministic for a fixed (fault plan, quick) setting at any
// worker count.
type Artifacts struct {
	Report    string
	BenchJSON []byte
	Trace     []byte
}

// stageRow pairs one measured stage with its calibrated counterpart.
type stageRow struct {
	Label        string  `json:"label"`
	MeasuredNs   float64 `json:"measured_ns"`
	CalibratedNs float64 `json:"calibrated_ns"`
}

// routeCheck is the per-route outcome of the measured-vs-calibrated
// stage-attribution cross-check.
type routeCheck struct {
	Route        string  `json:"route"`
	Bytes        int     `json:"bytes"`
	Stages       int     `json:"stages"`
	MeasuredNs   float64 `json:"measured_ns"`
	CalibratedNs float64 `json:"calibrated_ns"`
	Agree        bool    `json:"agree"`
}

// histStats is a latency histogram's summary statistics.
type histStats struct {
	Count  uint64  `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MaxNs  float64 `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
}

func summarize(h *metrics.Hist) histStats {
	return histStats{
		Count:  h.Count(),
		P50Ns:  h.Quantile(50).Ns(),
		P99Ns:  h.Quantile(99).Ns(),
		MaxNs:  h.Max().Ns(),
		MeanNs: h.Mean().Ns(),
	}
}

// linkStats is one link's counters in the JSON payload.
type linkStats struct {
	Node      int     `json:"node"`
	Port      string  `json:"port"`
	Packets   uint64  `json:"packets"`
	Bytes     uint64  `json:"bytes"`
	BusyUs    float64 `json:"busy_us"`
	Queued    uint64  `json:"queued"`
	MaxWaitNs float64 `json:"max_wait_ns"`
}

// phaseStats is one labelled phase span in the JSON payload.
type phaseStats struct {
	Label   string  `json:"label"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// benchMetrics is the BENCH_metrics.json schema.
type benchMetrics struct {
	Experiment    string       `json:"experiment"`
	Quick         bool         `json:"quick"`
	OneHopE2ENs   float64      `json:"one_hop_e2e_ns"`
	OneHopStages  []stageRow   `json:"one_hop_stages"`
	CrossChecks   []routeCheck `json:"cross_checks"`
	Anton         histStats    `json:"anton_latency"`
	Cluster       histStats    `json:"cluster_latency"`
	Links         []linkStats  `json:"busiest_links"`
	CountersArmed uint64       `json:"counters_armed"`
	CountersFired uint64       `json:"counters_fired"`
	Phases        []phaseStats `json:"allreduce_phases"`
}

// measuredStages runs one counted remote write from the origin to dst on
// a fresh instrumented 512-node machine and returns the reconstructed
// lifecycle's stage attribution and end-to-end latency.
func measuredStages(sess *Session, dst topo.Coord, bytes int) ([]metrics.Stage, sim.Dur) {
	m := machine.Default512(sess.NewSim())
	m.Metrics = metrics.New()
	measureWrite(m, topo.C(0, 0, 0), dst, bytes, false)
	lcs := m.Metrics.Lifecycles()
	if len(lcs) != 1 {
		panic(fmt.Sprintf("harness: expected 1 lifecycle, got %d", len(lcs)))
	}
	return lcs[0].Stages(), lcs[0].E2E()
}

// stagesAgree reports whether a measured attribution matches the
// calibrated closed form label for label and duration for duration.
func stagesAgree(meas []metrics.Stage, cal []noc.Stage) bool {
	if len(meas) != len(cal) {
		return false
	}
	for i := range meas {
		if meas[i].Label != cal[i].Label || meas[i].Dur != cal[i].Dur {
			return false
		}
	}
	return true
}

// crossRoutes are the routes the report's measured-vs-calibrated check
// covers; the metrics test battery checks more.
var crossRoutes = []struct {
	dst   topo.Coord
	bytes int
}{
	{topo.C(1, 0, 0), 0},
	{topo.C(2, 0, 0), 0},
	{topo.C(2, 1, 0), 256},
	{topo.C(1, 1, 1), 256},
}

// antonHist builds the Anton packet-latency histogram: the Figure 5 ping
// sweep (hops 0..12, 0 B and 256 B payloads, one fresh machine per
// point, merged in index order) plus every delivery of a 512-node 32 B
// all-reduce. Returns the histogram, the all-reduce recorder (for link,
// counter, and phase reporting), and the all-reduce torus used.
func antonHist(sess *Session, quick bool) (*metrics.Hist, *metrics.Recorder, topo.Torus) {
	maxHops := 12
	if quick {
		maxHops = 4
	}
	sizes := []int{0, 256}
	shards := sweep(sess, (maxHops+1)*len(sizes), func(i int) *metrics.Hist {
		h, b := i/len(sizes), sizes[i%len(sizes)]
		m := machine.Default512(sess.NewSim())
		m.Metrics = metrics.New()
		measureWrite(m, topo.C(0, 0, 0), hopPath(h), b, true)
		hist := &metrics.Hist{}
		hist.AddAll(m.Metrics.AntonLatencies())
		return hist
	})
	total := &metrics.Hist{}
	for _, h := range shards {
		if h == nil {
			continue // skipped unit of a cancelled session; report is discarded
		}
		total.Merge(*h)
	}

	tor := topo.NewTorus(8, 8, 8)
	if quick {
		tor = topo.NewTorus(4, 4, 4)
	}
	s := sess.NewSim()
	m := machine.New(s, tor, noc.DefaultModel())
	m.Metrics = metrics.New()
	ar := collective.NewAllReduce(m, collective.DefaultConfig(32))
	ar.Run(nil, nil)
	s.Run()
	total.AddAll(m.Metrics.AntonLatencies())
	return total, m.Metrics, tor
}

// clusterHist builds the InfiniBand message-latency histogram from every
// message of a recursive-doubling 32 B all-reduce across ranks ranks.
func clusterHist(sess *Session, ranks int) *metrics.Hist {
	s := sess.NewSim()
	c := cluster.New(s, ranks, cluster.DDR2InfiniBand())
	c.Metrics = metrics.New()
	c.AllReduce(32, nil)
	s.Run()
	h := &metrics.Hist{}
	h.AddAll(c.Metrics.ClusterLatencies())
	return h
}

// traceScenario runs the small scripted machine the chrome-trace export
// covers: a 2x2x2 torus performing two counted remote writes (one and
// three hops) followed by a 32 B all-reduce.
func traceScenario(sess *Session) *metrics.Recorder {
	s := sess.NewSim()
	m := machine.New(s, topo.NewTorus(2, 2, 2), noc.DefaultModel())
	m.Metrics = metrics.New()
	measureWrite(m, topo.C(0, 0, 0), topo.C(1, 0, 0), 0, false)
	measureWrite(m, topo.C(0, 0, 0), topo.C(1, 1, 1), 256, false)
	ar := collective.NewAllReduce(m, collective.DefaultConfig(32))
	ar.Run(func(n topo.NodeID) []float64 {
		v := make([]float64, 8)
		for i := range v {
			v[i] = float64(int(n)*8 + i)
		}
		return v
	}, nil)
	s.Run()
	return m.Metrics
}

// metricsArtifacts runs the metrics experiment and returns the rendered
// report, the BENCH_metrics.json payload, and the chrome-trace export.
func metricsArtifacts(sess *Session, quick bool) Artifacts {
	model := noc.DefaultModel()
	var b strings.Builder
	bench := benchMetrics{Experiment: "metrics", Quick: quick}

	b.WriteString(header("Measured-latency observability report"))

	// Figure 6, measured: the observed stage attribution of the one-hop
	// X+ 0-byte write against the calibrated closed form.
	b.WriteString("\nFigure 6 (measured): stage attribution of the single-X-hop 0 B remote write\n")
	oneHop, e2e := measuredStages(sess, topo.C(1, 0, 0), 0)
	oneHopCal := model.Stages([topo.NumDims]int{1, 0, 0}, packet.Slice0, packet.Slice0, packet.HeaderBytes)
	t := NewTable("stage", "measured (ns)", "calibrated (ns)")
	for i, st := range oneHop {
		cal := "-"
		if i < len(oneHopCal) {
			cal = fmt.Sprintf("%.0f", oneHopCal[i].Dur.Ns())
		}
		t.Row(st.Label, fmt.Sprintf("%.0f", st.Dur.Ns()), cal)
		row := stageRow{Label: st.Label, MeasuredNs: st.Dur.Ns()}
		if i < len(oneHopCal) {
			row.CalibratedNs = oneHopCal[i].Dur.Ns()
		}
		bench.OneHopStages = append(bench.OneHopStages, row)
	}
	t.Row("end-to-end", fmt.Sprintf("%.0f", e2e.Ns()), fmt.Sprintf("%.0f",
		model.PathLatency([topo.NumDims]int{1, 0, 0}, packet.Slice0, packet.Slice0, packet.HeaderBytes).Ns()))
	b.WriteString(t.String())
	bench.OneHopE2ENs = e2e.Ns()
	if stagesAgree(oneHop, oneHopCal) {
		b.WriteString("every measured stage agrees with the calibrated model to the picosecond\n")
	} else {
		b.WriteString("MISMATCH: measured attribution disagrees with the calibrated model\n")
	}
	b.WriteString("paper: 42 + 19 + 40 + 25 + 36 = 162 ns end to end\n")

	// Multi-hop cross-check: measured == calibrated, stage by stage.
	b.WriteString("\nmeasured-vs-calibrated cross-check\n")
	ct := NewTable("route", "bytes", "stages", "measured e2e (ns)", "calibrated e2e (ns)", "agree")
	tor := topo.NewTorus(8, 8, 8)
	for _, rc := range crossRoutes {
		meas, me2e := measuredStages(sess, rc.dst, rc.bytes)
		hops := tor.HopsByDim(topo.C(0, 0, 0), rc.dst)
		wire := packet.HeaderBytes + rc.bytes
		cal := model.Stages(hops, packet.Slice0, packet.Slice0, wire)
		ce2e := model.PathLatency(hops, packet.Slice0, packet.Slice0, wire)
		agree := stagesAgree(meas, cal) && me2e == ce2e
		ct.Row(fmt.Sprintf("%v", rc.dst), rc.bytes, len(meas),
			fmt.Sprintf("%.1f", me2e.Ns()), fmt.Sprintf("%.1f", ce2e.Ns()),
			fmt.Sprintf("%v", agree))
		bench.CrossChecks = append(bench.CrossChecks, routeCheck{
			Route: fmt.Sprintf("%v", rc.dst), Bytes: rc.bytes, Stages: len(meas),
			MeasuredNs: me2e.Ns(), CalibratedNs: ce2e.Ns(), Agree: agree,
		})
	}
	b.WriteString(ct.String())

	// Latency distributions.
	anton, arRec, arTor := antonHist(sess, quick)
	b.WriteString(fmt.Sprintf("\nAnton packet latency distribution (ping sweep + %v 32 B all-reduce deliveries)\n", arTor))
	b.WriteString(anton.Summary() + "\n")
	b.WriteString(anton.String())
	bench.Anton = summarize(anton)

	ranks := 512
	if quick {
		ranks = 64
	}
	ib := clusterHist(sess, ranks)
	b.WriteString(fmt.Sprintf("\nInfiniBand message latency distribution (%d-rank recursive-doubling 32 B all-reduce)\n", ranks))
	b.WriteString(ib.Summary() + "\n")
	b.WriteString(ib.String())
	bench.Cluster = summarize(ib)

	// Per-link utilization from the all-reduce run.
	links := arRec.Links()
	b.WriteString(fmt.Sprintf("\nbusiest links of the %v all-reduce (top 5 of %d by occupancy)\n", arTor, len(links)))
	top := append([]metrics.LinkRecord(nil), links...)
	// Occupancy descending; the stable sort keeps Links()'s (node, port)
	// order for ties, so the selection is deterministic.
	sort.SliceStable(top, func(i, j int) bool { return top[i].Busy > top[j].Busy })
	if len(top) > 5 {
		top = top[:5]
	}
	lt := NewTable("node", "port", "packets", "bytes", "busy (us)", "queued", "max wait (ns)")
	for _, l := range top {
		lt.Row(int(l.Key.Node), fmt.Sprintf("%v", topo.Ports[l.Key.Port]),
			l.Packets, l.Bytes, fmt.Sprintf("%.2f", l.Busy.Us()),
			l.Queued, fmt.Sprintf("%.1f", l.MaxWait.Ns()))
		bench.Links = append(bench.Links, linkStats{
			Node: int(l.Key.Node), Port: fmt.Sprintf("%v", topo.Ports[l.Key.Port]),
			Packets: l.Packets, Bytes: l.Bytes, BusyUs: l.Busy.Us(),
			Queued: l.Queued, MaxWaitNs: l.MaxWait.Ns(),
		})
	}
	b.WriteString(lt.String())

	armed, fired := arRec.CounterWaits()
	b.WriteString(fmt.Sprintf("\ncounter waits during the all-reduce: armed=%d fired=%d\n", armed, fired))
	bench.CountersArmed, bench.CountersFired = armed, fired

	b.WriteString("all-reduce round spans:\n")
	for _, sp := range arRec.Spans() {
		b.WriteString(fmt.Sprintf("  %-20s %8.3f us -> %8.3f us  (%.3f us)\n",
			sp.Label, sp.Start.Us(), sp.End.Us(), sp.End.Sub(sp.Start).Us()))
		bench.Phases = append(bench.Phases, phaseStats{
			Label: sp.Label, StartUs: sp.Start.Us(), EndUs: sp.End.Us(),
		})
	}

	js, err := json.MarshalIndent(&bench, "", "  ")
	if err != nil {
		panic(err)
	}
	js = append(js, '\n')

	return Artifacts{Report: b.String(), BenchJSON: js, Trace: traceScenario(sess).ChromeTrace()}
}

func init() {
	register(Experiment{ID: "metrics", Title: "measured-latency observability report",
		run:       func(s *Session, quick bool) string { return metricsArtifacts(s, quick).Report },
		artifacts: metricsArtifacts})
}
