package cluster

import (
	"fmt"

	"anton/internal/sim"
)

// Hard-failure survival for the cluster model. A killed rank (killnode)
// stops sending and receiving: its outgoing messages are lost at the NIC
// and messages addressed to it vanish at arrival. A killed uplink
// (killlink naming any port of the rank) is survivable: switched fabrics
// run redundant rails, so the rank pays a one-time path-migration delay
// on its next send and then continues at full speed.
//
// Collectives survive both through a watchdog on every stalled wait: a
// rank whose expected contributions cannot arrive (the waiter itself or
// enough of its senders are dead) proceeds degraded — the MPI
// fault-tolerance analogue of the machine model's synchronization-counter
// watchdog (machine/recovery.go). All of it is gated on the plan actually
// killing something, so kill-free plans schedule nothing extra and stay
// bit-identical to the pre-recovery model.

// defaultFailover is the one-time path-migration delay after an uplink
// kill when the plan sets no retransmission timeout to derive it from.
const defaultFailover = 10 * sim.Us

// watchdogMaxChecks bounds re-arms of one collective watchdog so a logic
// error degenerates into a panic rather than an unbounded event stream.
const watchdogMaxChecks = 1024

// RecoveryStats counts the hard-failure events the cluster survived.
type RecoveryStats struct {
	// Lost counts messages lost to dead ranks: dropped at the sender's
	// NIC (source dead) or at arrival (destination dead).
	Lost int
	// FailedOver counts ranks that migrated to a secondary uplink after
	// their primary was killed.
	FailedOver int
	// Degraded counts collective waits completed without a dead rank's
	// contribution.
	Degraded int
}

func (r RecoveryStats) String() string {
	return fmt.Sprintf("lost=%d failedover=%d degraded=%d", r.Lost, r.FailedOver, r.Degraded)
}

// Recovery returns the hard-failure tallies (all zero without kills).
func (c *Cluster) Recovery() RecoveryStats { return c.rec }

// failoverDelay is the one-time path-migration cost: the plan's drop
// timeout when set (the transport's detection deadline), else a default.
func (c *Cluster) failoverDelay() sim.Dur {
	if d := c.faults.DropTimeout(); d > 0 {
		return d
	}
	return defaultFailover
}

// watchCollective guards one stalled collective wait. pending reports
// whether the wait is still outstanding; explained whether the shortfall
// is attributable to dead ranks (or the waiter itself being dead);
// degrade completes the wait without the missing data. The check re-arms
// every watchdog deadline until the data arrives or the shortfall is
// explained — senders that are merely slow (e.g. mid-failover) are never
// preempted.
func (c *Cluster) watchCollective(pending func() bool, explained func() bool, degrade func()) {
	if !c.hard {
		return
	}
	deadline := c.faults.WatchdogDeadline()
	checks := 0
	var check sim.Func
	check = func() {
		if !pending() {
			return
		}
		checks++
		if checks > watchdogMaxChecks {
			panic("cluster: collective watchdog exceeded max checks without progress")
		}
		if explained() {
			c.rec.Degraded++
			degrade()
			return
		}
		c.Sim.After(deadline, check)
	}
	c.Sim.After(deadline, check)
}
