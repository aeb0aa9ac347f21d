package nicsim

import (
	"fmt"

	"vibe/internal/sim"
)

// rtoBackoffCap bounds exponential backoff at Base << rtoBackoffCap.
const rtoBackoffCap = 6

// RTO is the retransmission-timeout policy for one reliable connection:
// it tracks forward progress of the oldest unacked sequence, escalates
// the timeout exponentially (with a cap) while the window is stalled,
// and decides when the sender must give up. The base timeout is fixed,
// like the firmware timers of the modeled providers.
//
// The zero value is unusable; initialize with Init.
type RTO struct {
	// Base is the configured retransmission timeout: the interval before
	// backoff.
	Base sim.Duration

	// MaxStalls is the give-up threshold: the connection is declared
	// dead after more than MaxStalls consecutive timeouts without the
	// oldest unacked sequence advancing.
	MaxStalls int

	// lastSeq / stalls implement the no-progress policy. lastSeq starts
	// at a sentinel so the first timeout always counts from zero.
	lastSeq uint64
	stalls  int

	// Backoffs counts timeouts that fired with an escalated interval —
	// every consecutive stall past the first.
	Backoffs uint64
}

// Init configures the policy and resets all state.
func (r *RTO) Init(base sim.Duration, maxStalls int) {
	*r = RTO{Base: base, MaxStalls: maxStalls}
	r.lastSeq = ^uint64(0) // sentinel: no timeout observed yet
}

// Stalled records one timeout of the window's oldest unacked sequence
// and reports whether the sender must give up: more than MaxStalls
// consecutive timeouts without that sequence advancing. Progress resets
// the stall count, so a long recovering window does not accumulate
// spurious retries.
func (r *RTO) Stalled(oldestSeq uint64) (giveUp bool) {
	if oldestSeq != r.lastSeq {
		r.lastSeq = oldestSeq
		r.stalls = 0
	}
	r.stalls++
	return r.stalls > r.MaxStalls
}

// Backoff returns the interval to wait before the next retransmission
// check: Base left-shifted once per consecutive stall
// beyond the first, capped at Base << rtoBackoffCap. It must be called
// after Stalled on the same timeout event; escalated intervals count in
// Backoffs.
func (r *RTO) Backoff() sim.Duration {
	d := r.Base
	if r.stalls > 1 {
		r.Backoffs++
		d <<= uint(r.stalls - 1)
	}
	if max := r.Base << rtoBackoffCap; d > max {
		d = max
	}
	return d
}

func (r *RTO) String() string {
	return fmt.Sprintf("rto{timeout=%s stalls=%d}", r.Base, r.stalls)
}
