package via

import "vibe/internal/sim"

// Completion is one completion-queue entry: which VI completed a
// descriptor and on which of its work queues. Per the VIA model, the
// consumer then dequeues the descriptor from that work queue.
type Completion struct {
	Vi     *Vi
	IsRecv bool
}

// CQ is a completion queue. Work queues of any number of VIs may be
// associated with it at VI-creation time; each descriptor completion on an
// associated queue appends an entry here, so one poll or wait covers many
// VIs.
type CQ struct {
	nic       *Nic
	depth     int
	entries   []Completion
	sig       *sim.Signal
	destroyed bool

	// Overflows counts completions that arrived with the CQ full. VIA
	// declares this a catastrophic application error; the simulation
	// counts and drops.
	Overflows uint64
}

// Destroy releases the CQ, mirroring VipDestroyCQ. Associated VIs must
// already be destroyed; the caller is responsible for ordering (as in
// VIPL, misuse is an application bug).
func (q *CQ) Destroy(ctx *Ctx) error {
	if q.destroyed {
		return ErrDestroyed
	}
	ctx.use(q.nic.model.CqDestroy)
	q.destroyed = true
	q.entries = nil
	return nil
}

// push appends a completion entry (engine side).
func (q *CQ) push(c Completion) {
	if q.destroyed {
		return
	}
	if len(q.entries) >= q.depth {
		q.Overflows++
		return
	}
	q.entries = append(q.entries, c)
	q.sig.Broadcast()
}

// Done polls the CQ once, mirroring VipCQDone: if an entry is available it
// is dequeued and returned with ok=true. Each call costs one CQ check.
func (q *CQ) Done(ctx *Ctx) (Completion, bool) {
	ctx.use(q.nic.model.CheckCost + q.nic.model.CqCheckExtra)
	return q.take()
}

// WaitPoll spins until an entry is available, burning CPU the whole time
// (the simulated equivalent of a VipCQDone polling loop), then dequeues
// it. The check cost is paid at detection: it is the reaction time between
// the completion landing and the polling loop observing it, which is what
// makes CQ-based completion measurably slower than direct work-queue
// polling on providers with expensive CQ checks. The entry is dequeued
// before the cost is charged, so a second waiter on the CQ cannot take
// it while this one pays (Wait and WaitBlockForever likewise).
func (q *CQ) WaitPoll(ctx *Ctx) (Completion, error) {
	m := q.nic.model
	for {
		if c, ok := q.take(); ok {
			ctx.use(m.CheckCost + m.CqCheckExtra)
			return c, nil
		}
		if q.destroyed {
			return Completion{}, ErrDestroyed
		}
		ctx.Host.CPU.SpinWait(ctx.P, q.sig)
	}
}

// Wait blocks (CPU idle) until an entry is available or timeout elapses,
// mirroring VipCQWait. Waking costs the provider's interrupt/wakeup price
// plus the CQ check.
func (q *CQ) Wait(ctx *Ctx, timeout sim.Duration) (Completion, error) {
	m := q.nic.model
	deadline := ctx.Now().Add(timeout)
	for {
		if c, ok := q.take(); ok {
			ctx.use(m.CheckCost + m.CqCheckExtra)
			return c, nil
		}
		if q.destroyed {
			return Completion{}, ErrDestroyed
		}
		remain := deadline.Sub(ctx.Now())
		if remain <= 0 {
			return Completion{}, ErrTimeout
		}
		if !ctx.Host.CPU.BlockWaitTimeout(ctx.P, q.sig, remain, m.BlockWakeCost) {
			return Completion{}, ErrTimeout
		}
	}
}

// WaitBlockForever blocks with the CPU idle until an entry arrives, with
// no deadline and no polling events: the right primitive for service
// daemons that must not keep the simulation alive while idle. It returns
// ErrDestroyed if the CQ is destroyed.
func (q *CQ) WaitBlockForever(ctx *Ctx) (Completion, error) {
	m := q.nic.model
	for {
		if c, ok := q.take(); ok {
			ctx.use(m.CheckCost + m.CqCheckExtra)
			return c, nil
		}
		if q.destroyed {
			return Completion{}, ErrDestroyed
		}
		ctx.Host.CPU.BlockWait(ctx.P, q.sig, m.BlockWakeCost)
	}
}

func (q *CQ) take() (Completion, bool) {
	if len(q.entries) == 0 {
		return Completion{}, false
	}
	c := q.entries[0]
	q.entries = q.entries[1:]
	return c, true
}

// Len reports queued completions (for tests).
func (q *CQ) Len() int { return len(q.entries) }
