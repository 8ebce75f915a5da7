package cluster

import (
	"testing"

	"anton/internal/sim"
)

func TestPingLatencyCalibration(t *testing.T) {
	// Published MPI small-message latencies for DDR-era InfiniBand are
	// ~2.2 us (Table 1's Roadrunner row).
	m := DDR2InfiniBand()
	us := m.PingLatency().Us()
	if us < 1.8 || us > 2.6 {
		t.Fatalf("ping latency = %.2fus, want ~2.16us", us)
	}
}

// raceEnabled is set by race_test.go under -race, whose instrumentation
// allocates on its own.
var raceEnabled bool

// A cluster holds its ranks' NIC and CPU resources by value, so building
// one allocates the same few objects whatever its rank count.
func TestNewAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := sim.New()
	for _, n := range []int{2, 512} {
		if got := testing.AllocsPerRun(10, func() { New(s, n, DDR2InfiniBand()) }); got > 3 {
			t.Errorf("cluster of %d ranks: %v allocations, want at most 3", n, got)
		}
	}
}

func TestSendDelivers(t *testing.T) {
	s := sim.New()
	c := New(s, 4, DDR2InfiniBand())
	var at sim.Time = -1
	c.Send(0, 3, 0, func(tm sim.Time) { at = tm })
	s.Run()
	if at < 0 {
		t.Fatal("message never delivered")
	}
	if got := sim.Dur(at); got != c.Model.PingLatency() {
		t.Fatalf("small message latency %v, want %v", got, c.Model.PingLatency())
	}
}

func TestSendBandwidthTerm(t *testing.T) {
	s := sim.New()
	c := New(s, 2, DDR2InfiniBand())
	var small, big sim.Time
	c.Send(0, 1, 0, func(tm sim.Time) { small = tm })
	s.Run()
	s2 := sim.New()
	c2 := New(s2, 2, DDR2InfiniBand())
	c2.Send(0, 1, 2048, func(tm sim.Time) { big = tm })
	s2.Run()
	want := sim.Dur(2048) * c.Model.PsPerByte
	if big.Sub(small) != want {
		t.Fatalf("2KB adds %v, want %v", big.Sub(small), want)
	}
}

func TestGapSerializesMessages(t *testing.T) {
	s := sim.New()
	c := New(s, 2, DDR2InfiniBand())
	var last sim.Time
	n := 10
	got := 0
	for i := 0; i < n; i++ {
		c.Send(0, 1, 0, func(tm sim.Time) {
			got++
			last = tm
		})
	}
	s.Run()
	if got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	// n messages gap-paced: total >= (n-1)*gap + ping.
	min := sim.Dur(n-1)*c.Model.Gap + c.Model.PingLatency()
	if sim.Dur(last) < min {
		t.Fatalf("last delivery %v, want >= %v", last, min)
	}
}

func TestTransferManyMessagesGrowsWithCount(t *testing.T) {
	// Figure 7's InfiniBand curve: splitting 2 KB into many messages costs
	// far more than one message — roughly 8x at 64 messages.
	times := map[int]sim.Time{}
	for _, count := range []int{1, 16, 64} {
		s := sim.New()
		c := New(s, 2, DDR2InfiniBand())
		var at sim.Time
		c.TransferManyMessages(0, 1, 2048, count, func(tm sim.Time) { at = tm })
		s.Run()
		times[count] = at
	}
	if times[16] <= times[1] || times[64] <= times[16] {
		t.Fatalf("transfer time not increasing: %v", times)
	}
	ratio := float64(times[64]) / float64(times[1])
	if ratio < 5 || ratio > 12 {
		t.Fatalf("64-message normalized cost %.1f, want ~8 (Fig. 7b)", ratio)
	}
	// Absolute: 1 message ~4.5-5.5us, 64 messages ~35-45us.
	if us := times[1].Us(); us < 3.5 || us > 6.5 {
		t.Fatalf("single 2KB message = %.2fus, want ~5us", us)
	}
	if us := times[64].Us(); us < 30 || us > 50 {
		t.Fatalf("64-message 2KB = %.2fus, want ~40us", us)
	}
}

func TestAllReduce512Calibration(t *testing.T) {
	// Section IV.B.4: the same 32-byte reduction Anton does in 1.77us takes
	// 35.5us on the 512-node InfiniBand cluster.
	s := sim.New()
	c := New(s, 512, DDR2InfiniBand())
	var at sim.Time = -1
	c.AllReduce(32, func(tm sim.Time) { at = tm })
	s.Run()
	if at < 0 {
		t.Fatal("all-reduce never completed")
	}
	us := at.Us()
	if us < 30 || us > 41 {
		t.Fatalf("512-rank all-reduce = %.1fus, want ~35.5us", us)
	}
}

func TestAllReduceRequiresPowerOfTwo(t *testing.T) {
	s := sim.New()
	c := New(s, 6, DDR2InfiniBand())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AllReduce(8, nil)
}

func TestStagedExchangeCompletes(t *testing.T) {
	s := sim.New()
	c := New(s, 512, DDR2InfiniBand())
	var at sim.Time = -1
	c.StagedNeighborExchange(3000, func(tm sim.Time) { at = tm })
	s.Run()
	if at < 0 {
		t.Fatal("staged exchange never completed")
	}
	// Three stages with marshalling: tens of microseconds.
	us := at.Us()
	if us < 20 || us > 90 {
		t.Fatalf("staged exchange = %.1fus", us)
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() sim.Time {
		s := sim.New()
		c := New(s, 64, DDR2InfiniBand())
		var at sim.Time
		c.AllReduce(32, func(tm sim.Time) { at = tm })
		s.Run()
		return at
	}
	if run() != run() {
		t.Fatal("cluster model is nondeterministic")
	}
}
