package machine

import (
	"fmt"
	"testing"

	"anton/internal/fault"
	"anton/internal/metrics"
	"anton/internal/noc"
	"anton/internal/sim"
	"anton/internal/topo"
)

// TestOnLinkCountersMatchRecorder: link counters kept by an OnLink hook
// through metrics.LinkCounters.Add equal the recorder's Links(), link by
// link, on the same run. The property workload's unicast and multicast
// traffic runs on a 4x4x4 machine fault-free, under corruption and
// stalls (fault retries extend each occupancy), and under a link kill
// (unicast hops route by the fault-epoch tables and detour, multicast
// subtrees are lost). The analytic step model's calibration counts link
// traffic this way instead of attaching a recorder.
func TestOnLinkCountersMatchRecorder(t *testing.T) {
	shape := [3]int{4, 4, 4}
	work, pairs := propWorkload(5, shape, 600)
	var cleanBusy sim.Dur
	for _, tc := range []struct{ name, plan string }{
		{"unicast+multicast", ""},
		{"corrupt+stall", "seed=3,corrupt=2e-3,stall=0.05,stalldur=40ns"},
		// Kill the first hot pair's link while its bursts are in flight;
		// the stalls make the hard path's occupancies carry fault time.
		{"killlink", fmt.Sprintf("seed=1,stall=0.05,stalldur=40ns,killlink=%d:X+@1us", pairs[0][0])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			if tc.plan != "" {
				fault.Attach(s, fault.MustParsePlan(tc.plan))
			}
			m := New(s, topo.NewTorus(shape[0], shape[1], shape[2]), noc.DefaultModel())
			rec := metrics.New()
			m.Metrics = rec
			hooked := make([]metrics.LinkCounters, m.Torus.Nodes()*len(topo.Ports))
			m.OnLink = func(n topo.NodeID, p topo.Port, _ sim.Time, service sim.Dur, wireBytes int, wait sim.Dur) {
				hooked[int(n)*len(topo.Ports)+topo.PortIndex(p)].Add(service, wireBytes, wait)
			}
			propSchedule(m, work, pairs, -1)
			s.Run()

			var recorded metrics.LinkCounters
			for _, lr := range rec.Links() {
				if got := hooked[int(lr.Key.Node)*len(topo.Ports)+lr.Key.Port]; got != lr.LinkCounters {
					t.Errorf("link %v: hook counted %+v, recorder %+v", lr.Key, got, lr.LinkCounters)
				}
				recorded.Packets += lr.Packets
				recorded.Busy += lr.Busy
				recorded.Queued += lr.Queued
			}
			var hookedPackets uint64
			for _, lc := range hooked {
				hookedPackets += lc.Packets
			}
			// Equal totals: no link the hook counted is missing from the
			// recorder.
			if hookedPackets != recorded.Packets {
				t.Errorf("hook counted %d packets, recorder %d", hookedPackets, recorded.Packets)
			}
			if recorded.Queued == 0 {
				t.Error("no packet waited for a link; the workload exercises no head-of-line wait")
			}
			switch tc.name {
			case "unicast+multicast":
				cleanBusy = recorded.Busy
			case "corrupt+stall":
				if recorded.Busy <= cleanBusy {
					t.Errorf("faulted links busy %v, fault-free %v: no retry or stall extended an occupancy", recorded.Busy, cleanBusy)
				}
			case "killlink":
				if !m.hard || m.Recovery().Lost == 0 {
					t.Errorf("kill plan took no hard path (hard %v, %v)", m.hard, m.Recovery())
				}
			}
		})
	}
}
