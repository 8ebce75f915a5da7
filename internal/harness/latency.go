package harness

import (
	"fmt"

	"anton/internal/machine"
	"anton/internal/noc"
	"anton/internal/packet"
	"anton/internal/sim"
	"anton/internal/topo"
)

// hopPath returns a destination coordinate h hops from the origin,
// travelling first along X (up to 4 hops), then Y, then Z, matching the
// measurement path of Figure 5 on an 8x8x8 machine.
func hopPath(h int) topo.Coord {
	c := topo.C(0, 0, 0)
	take := func(v int, max int) (int, int) {
		if v > max {
			return max, v - max
		}
		return v, 0
	}
	var x, y, z int
	x, h = take(h, 4)
	y, h = take(h, 4)
	z, _ = take(h, 4)
	c = topo.C(x, y, z)
	return c
}

// OneWayLatency measures a single counted remote write from slice0 at the
// origin to slice0 at dst on a fresh 512-node machine the session builds.
func OneWayLatency(sess *Session, dst topo.Coord, bytes int) sim.Dur {
	s := sess.NewSim()
	m := machine.Default512(s)
	return measureWrite(m, topo.C(0, 0, 0), dst, bytes, false)
}

// measureWrite measures the origin->dst write latency; if bidirectional,
// an opposite write is launched simultaneously (the ping-pong traffic of
// Figure 5's bidirectional curves) and the slower of the two directions is
// reported.
func measureWrite(m *machine.Machine, src, dst topo.Coord, bytes int, bidirectional bool) sim.Dur {
	s := m.Sim
	a := packet.Client{Node: m.Torus.ID(src), Kind: packet.Slice0}
	b := packet.Client{Node: m.Torus.ID(dst), Kind: packet.Slice0}
	start := s.Now()
	var fwd, rev sim.Time = -1, start
	m.Client(b).Wait(9, 1, func() { fwd = s.Now() })
	m.Client(a).Write(b, 9, 0, bytes)
	if bidirectional && a != b {
		rev = -1
		m.Client(a).Wait(9, 1, func() { rev = s.Now() })
		m.Client(b).Write(a, 9, 0, bytes)
	}
	s.Run()
	lat := fwd.Sub(start)
	if r := rev.Sub(start); r > lat {
		lat = r
	}
	return lat
}

func fig5(sess *Session, quick bool) string {
	out := header("Figure 5: one-way counted remote write latency vs network hops (8x8x8)")
	t := NewTable("hops", "0B uni (ns)", "0B bidir (ns)", "256B uni (ns)", "256B bidir (ns)")
	maxHops := 12
	// Every hop count is measured on its own fresh machine, so the hop
	// sweep runs on the experiment worker pool.
	rows := sweep(sess, maxHops+1, func(h int) [4]string {
		dst := hopPath(h)
		var cells [4]string
		for k, c := range []struct {
			bytes int
			bidir bool
		}{{0, false}, {0, true}, {256, false}, {256, true}} {
			s := sess.NewSim()
			m := machine.Default512(s)
			lat := measureWrite(m, topo.C(0, 0, 0), dst, c.bytes, c.bidir)
			cells[k] = fmt.Sprintf("%.1f", lat.Ns())
		}
		return cells
	})
	for h, cells := range rows {
		t.Row(h, cells[0], cells[1], cells[2], cells[3])
	}
	out += t.String()
	model := noc.DefaultModel()
	out += fmt.Sprintf("\nslopes: %.0f ns/hop in X, %.0f ns/hop in Y/Z (paper: 76 and 54)\n",
		model.HopIncrement(topo.X).Ns(), model.HopIncrement(topo.Y).Ns())
	out += "paper: 162 ns for a 0-byte message between X neighbours; 12 hops is the 8x8x8 maximum\n"
	return out
}

func fig6(sess *Session, quick bool) string {
	model := noc.DefaultModel()
	out := header("Figure 6: breakdown of single-X-hop counted remote write latency")
	t := NewTable("component", "model (ns)", "paper (ns)")
	t.Row("write packet send initiated in processing slice", fmt.Sprintf("%.0f", model.SliceSend.Ns()), "42")
	t.Row("source on-chip ring traversal (2 router hops)", fmt.Sprintf("%.0f", model.SrcRing.Ns()), "19")
	t.Row("link adapters + passive torus wire (both sides)", fmt.Sprintf("%.0f", model.AdapterPair[topo.X].Ns()), "20+20")
	t.Row("destination on-chip ring traversal (3 router hops)", fmt.Sprintf("%.0f", model.DstRing.Ns()), "25")
	t.Row("memory write + counter increment + successful poll", fmt.Sprintf("%.0f", model.Deliver.Ns()), "36")
	total := OneWayLatency(sess, topo.C(1, 0, 0), 0)
	t.Row("end-to-end (measured on the event simulator)", fmt.Sprintf("%.0f", total.Ns()), "162")
	out += t.String()
	return out
}

// table1Survey is the published latency survey of Table 1 (microseconds).
var table1Survey = []struct {
	machine string
	us      float64
	date    string
}{
	{"Altix 3700 BX2", 1.25, "2006"},
	{"QsNetII", 1.28, "2005"},
	{"Columbia", 1.6, "2005"},
	{"Sun Fire", 1.7, "2002"},
	{"EV7", 1.7, "2002"},
	{"J-Machine", 1.8, "1993"},
	{"QsNET", 1.9, "2001"},
	{"Roadrunner (InfiniBand)", 2.16, "2008"},
	{"Cray T3E", 2.75, "1996"},
	{"Blue Gene/P", 2.75, "2008"},
	{"Blue Gene/L", 2.8, "2005"},
	{"ASC Purple", 4.4, "2005"},
	{"Cray XT4", 4.5, "2007"},
	{"Red Storm", 6.9, "2005"},
	{"SR8000", 9.9, "2001"},
}

func table1(sess *Session, quick bool) string {
	out := header("Table 1: survey of published inter-node software-to-software latency")
	t := NewTable("machine", "latency (us)", "date")
	anton := OneWayLatency(sess, topo.C(1, 0, 0), 0)
	t.Row("Anton (measured here)", fmt.Sprintf("%.2f", anton.Us()), "2009")
	for _, row := range table1Survey {
		t.Row(row.machine, fmt.Sprintf("%.2f", row.us), row.date)
	}
	out += t.String()
	out += fmt.Sprintf("\nAnton advantage over the fastest survey entry: %.1fx (paper: 1.25/0.162 = 7.7x)\n",
		table1Survey[0].us/anton.Us())
	return out
}

func init() {
	register(Experiment{ID: "fig5", Title: "latency vs hops", run: fig5})
	register(Experiment{ID: "fig6", Title: "single-hop latency breakdown", run: fig6})
	register(Experiment{ID: "table1", Title: "latency survey", run: table1})
}
