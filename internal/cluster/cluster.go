// Package cluster models the comparison platform of the paper's Table 3
// and Figure 7: a 512-node Xeon cluster with a DDR2 InfiniBand
// interconnect running the Desmond MD software.
//
// The network follows the LogGP cost model: per-message sender and
// receiver CPU overheads, a wire latency, a minimum inter-message gap, and
// a per-byte cost. The constants are calibrated against published
// measurements the paper cites: ~2.2 us small-message MPI latency
// (Roadrunner InfiniBand, Table 1), ~0.55 us per-message cost (Figure 7's
// InfiniBand slope), and the 35.5 us 512-node all-reduce of Section
// IV.B.4.
package cluster

import (
	"math/bits"

	"anton/internal/fault"
	"anton/internal/metrics"
	"anton/internal/sim"
)

// Model holds the LogGP parameters of the cluster interconnect.
type Model struct {
	// SendOverhead (o_s): CPU time to issue one message.
	SendOverhead sim.Dur
	// RecvOverhead (o_r): CPU time to land one message.
	RecvOverhead sim.Dur
	// Latency (L): wire plus switch traversal.
	Latency sim.Dur
	// Gap (g): minimum spacing between message injections at one rank.
	Gap sim.Dur
	// PsPerByte (G): incremental cost per payload byte.
	PsPerByte sim.Dur
	// CollectiveOverhead: per-round software cost inside MPI collectives
	// (buffer management, algorithm control flow).
	CollectiveOverhead sim.Dur
	// MarshalPerStage: data recombination/repackaging cost between stages
	// of staged communication — the processing the paper's Figure 8
	// describes commodity codes doing to keep message counts low.
	MarshalPerStage sim.Dur
}

// DDR2InfiniBand returns the calibrated model.
func DDR2InfiniBand() Model {
	return Model{
		SendOverhead:       450 * sim.Ns,
		RecvOverhead:       450 * sim.Ns,
		Latency:            1260 * sim.Ns,
		Gap:                550 * sim.Ns,
		PsPerByte:          1250 * sim.Ps, // ~6.4 Gbit/s effective at 2 KB
		CollectiveOverhead: 1750 * sim.Ns,
		MarshalPerStage:    9500 * sim.Ns,
	}
}

// PingLatency returns the one-way small-message software-to-software
// latency: the quantity Table 1 surveys.
func (m Model) PingLatency() sim.Dur {
	return m.SendOverhead + m.Latency + m.RecvOverhead
}

// Cluster is an event-driven cluster of N ranks.
type Cluster struct {
	Sim   *sim.Sim
	Model Model
	N     int

	nic []*sim.Resource // per-rank injection (gap/bandwidth) pacing
	cpu []*sim.Resource // per-rank receive processing

	// faults is the fault injector attached to the simulator, or nil.
	// It models fabric-level message loss repaired by a sender-side
	// retransmission timeout (the reliability layer commodity
	// interconnects run in firmware or the MPI transport).
	faults *fault.Injector

	// metrics is the lifecycle recorder attached to the simulator, or
	// nil; it observes per-message software-to-software latencies.
	metrics *metrics.Recorder

	// Hard-failure state (recovery.go); nil/zero unless the plan kills a
	// link or node, so kill-free plans reproduce the old model exactly.
	hard       bool
	failedOver []bool
	rec        RecoveryStats
}

// New builds a cluster of n ranks.
func New(s *sim.Sim, n int, m Model) *Cluster {
	c := &Cluster{Sim: s, Model: m, N: n, faults: fault.FromSim(s), metrics: metrics.FromSim(s)}
	c.nic = make([]*sim.Resource, n)
	c.cpu = make([]*sim.Resource, n)
	for i := 0; i < n; i++ {
		c.nic[i] = sim.NewResource(s)
		c.cpu[i] = sim.NewResource(s)
	}
	if c.faults.HardFaults() {
		c.hard = true
		c.failedOver = make([]bool, n)
	}
	return c
}

// Send transmits bytes from src to dst; onRecv fires when the receiving
// rank's software has the message (after its receive overhead). Under a
// fault plan, the fabric may lose the message; the sender detects the
// loss after the plan's timeout and retransmits (paying the injection
// overheads again), repeating until a copy gets through.
func (c *Cluster) Send(src, dst, bytes int, onRecv func(at sim.Time)) {
	m := c.Model
	service := m.Gap
	if bw := sim.Dur(bytes) * m.PsPerByte; bw > service {
		service = bw
	}
	if rec := c.metrics; rec != nil {
		// Latency is measured from the software issuing the send to the
		// receiver software holding the message, so NIC queueing and any
		// timeout-and-retransmit recoveries are part of the sample.
		seq := rec.ClusterSend(src, dst, bytes, c.Sim.Now())
		user := onRecv
		onRecv = func(at sim.Time) {
			rec.ClusterDeliver(seq, dst, at)
			if user != nil {
				user(at)
			}
		}
	}
	attempts := 0
	var attempt sim.Func
	attempt = func() {
		c.nic[src].Acquire(service, sim.Func(func() {
			start := c.Sim.Now()
			if c.hard && c.faults.NodeKilledAt(src, start) {
				// A dead rank issues nothing: the message is lost at the
				// NIC and the receiver's watchdog explains the shortfall.
				c.rec.Lost++
				return
			}
			if c.hard && !c.failedOver[src] {
				if kt, ok := c.faults.FirstLinkKill(src); ok && start >= kt {
					// Primary uplink is dead: one-time path migration to
					// the secondary rail, then retry the injection.
					c.failedOver[src] = true
					c.rec.FailedOver++
					c.Sim.At(start.Add(c.failoverDelay()), attempt)
					return
				}
			}
			if c.faults.Drop(src, attempts) {
				attempts++
				c.Sim.At(start.Add(c.faults.DropTimeout()), attempt)
				return
			}
			arrive := start.Add(m.SendOverhead + m.Latency + sim.Dur(bytes)*m.PsPerByte)
			c.Sim.At(arrive, sim.Func(func() {
				if c.hard && c.faults.NodeKilledAt(dst, arrive) {
					c.rec.Lost++
					return
				}
				c.cpu[dst].Acquire(m.RecvOverhead, sim.Func(func() {
					c.Sim.At(c.Sim.Now().Add(m.RecvOverhead), sim.Func(func() {
						if onRecv != nil {
							onRecv(c.Sim.Now())
						}
					}))
				}))
			}))
		}))
	}
	attempt()
}

// Faults returns the fault injector driving this cluster, or nil.
func (c *Cluster) Faults() *fault.Injector { return c.faults }

// TransferManyMessages sends the given total payload from rank src to rank
// dst split into count equal messages and calls done when the last byte
// has been received — the Figure 7 experiment.
func (c *Cluster) TransferManyMessages(src, dst, totalBytes, count int, done func(at sim.Time)) {
	per := totalBytes / count
	remaining := count
	for i := 0; i < count; i++ {
		bytes := per
		if i == count-1 {
			bytes = totalBytes - per*(count-1)
		}
		c.Send(src, dst, bytes, func(at sim.Time) {
			remaining--
			if remaining == 0 && done != nil {
				done(at)
			}
		})
	}
}

// AllReduce performs a recursive-doubling all-reduce of the given payload
// size across all ranks (N must be a power of two); done fires when every
// rank has the result.
func (c *Cluster) AllReduce(bytes int, done func(at sim.Time)) {
	if c.N&(c.N-1) != 0 {
		panic("cluster: all-reduce requires power-of-two rank count")
	}
	rounds := bits.TrailingZeros(uint(c.N))
	remaining := c.N
	finish := func(at sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(at)
		}
	}
	var stage func(rank, k int)
	recvd := make([]map[int]int, c.N) // rank -> round -> arrivals
	waiting := make([]map[int]func(), c.N)
	for i := range recvd {
		recvd[i] = make(map[int]int)
		waiting[i] = make(map[int]func())
	}
	stage = func(rank, k int) {
		if k >= rounds {
			finish(c.Sim.Now())
			return
		}
		partner := rank ^ (1 << k)
		c.Send(rank, partner, bytes, func(at sim.Time) {
			recvd[partner][k]++
			if fn := waiting[partner][k]; fn != nil && recvd[partner][k] > 0 {
				delete(waiting[partner], k)
				fn()
			}
		})
		proceed := func() {
			c.Sim.After(c.Model.CollectiveOverhead, sim.Func(func() { stage(rank, k+1) }))
		}
		if recvd[rank][k] > 0 {
			recvd[rank][k]--
			proceed()
		} else {
			waiting[rank][k] = func() {
				recvd[rank][k]--
				proceed()
			}
			// Under a kill plan the wait may never be satisfied: if the
			// waiter or its partner is dead, proceed without the data.
			rank, k, partner := rank, k, partner
			c.watchCollective(
				func() bool { return waiting[rank][k] != nil },
				func() bool {
					now := c.Sim.Now()
					return c.faults.NodeKilledAt(rank, now) || c.faults.NodeKilledAt(partner, now)
				},
				func() {
					delete(waiting[rank], k)
					proceed()
				},
			)
		}
	}
	for r := 0; r < c.N; r++ {
		stage(r, 0)
	}
}

// StagedNeighborExchange models the commodity-cluster pattern of Figure
// 8a: a three-stage exchange (one stage per dimension, two messages per
// stage) that reaches all 26 neighbours with only six messages per node,
// at the cost of forwarding dependencies and per-stage marshalling. done
// fires when every rank has completed all stages. bytesPerMsg is the
// per-message payload.
func (c *Cluster) StagedNeighborExchange(bytesPerMsg int, done func(at sim.Time)) {
	const stages = 3
	remaining := c.N
	finish := func(at sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(at)
		}
	}
	// Ranks are arranged in a notional 8x8x8 grid; partners along each
	// stage dimension. (Exact neighbour identity does not matter for the
	// switched-fabric cost model: every message costs the same.)
	side := 8
	for c.N < side*side*side {
		side /= 2
	}
	recvd := make([]int, c.N)
	waiting := make([]func(), c.N)
	var stage func(rank, k int)
	stage = func(rank, k int) {
		if k >= stages {
			finish(c.Sim.Now())
			return
		}
		// Two messages (plus and minus neighbours along this dimension).
		stride := 1
		for i := 0; i < k; i++ {
			stride *= side
		}
		up := (rank + stride) % c.N
		down := (rank - stride + c.N) % c.N
		for _, dst := range []int{up, down} {
			c.Send(rank, dst, bytesPerMsg, func(at sim.Time) {
				recvd[dst]++
				if waiting[dst] != nil && recvd[dst] >= 2 {
					fn := waiting[dst]
					waiting[dst] = nil
					fn()
				}
			})
		}
		proceed := func() {
			recvd[rank] -= 2
			// Between stages the node recombines received data for
			// forwarding: the marshalling cost staged communication pays.
			c.Sim.After(c.Model.MarshalPerStage, sim.Func(func() { stage(rank, k+1) }))
		}
		if recvd[rank] >= 2 {
			proceed()
		} else {
			waiting[rank] = proceed
			// The stage's senders to this rank are exactly up and down
			// (the exchange is symmetric); degrade when enough of them
			// are dead to explain the shortfall.
			rank, up, down := rank, up, down
			c.watchCollective(
				func() bool { return waiting[rank] != nil },
				func() bool {
					now := c.Sim.Now()
					if c.faults.NodeKilledAt(rank, now) {
						return true
					}
					dead := 0
					if c.faults.NodeKilledAt(up, now) {
						dead++
					}
					if c.faults.NodeKilledAt(down, now) {
						dead++
					}
					return dead >= 2-recvd[rank]
				},
				func() {
					fn := waiting[rank]
					waiting[rank] = nil
					recvd[rank] = 2
					fn()
				},
			)
		}
	}
	for r := 0; r < c.N; r++ {
		stage(r, 0)
	}
}
