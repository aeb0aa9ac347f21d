package sim

import "fmt"

// Proc is a simulated process: a coroutine whose execution is interleaved
// with all other processes by the engine, one at a time. Inside a process
// function, time passes only through the blocking primitives (Sleep, Wait,
// queue operations); ordinary Go code executes in zero virtual time.
type Proc struct {
	eng    *Engine
	name   string
	fn     func(*Proc)
	co     *coro // the coroutine executing fn; nil until the start event dispatches
	dead   bool
	daemon bool
	parked bool // blocked with no wake event pending (see parkBlocked)

	// w is the process's one Signal waiter: a process waits on at most one
	// Signal at a time, so parking reuses it instead of allocating.
	w waiter
}

// SetDaemon marks the process as a daemon: an engine loop that blocks
// forever waiting for work (a NIC engine, a server accept loop). Blocked
// daemons do not count toward deadlock detection, so Run can return once
// all non-daemon work is finished.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// register adds p to the engine's process registry, compacting dead
// entries in place when the slice is about to grow so the registry stays
// proportional to the number of live processes.
func (e *Engine) register(p *Proc) {
	if len(e.procs) > 0 && len(e.procs) == cap(e.procs) {
		live := e.procs[:0]
		for _, q := range e.procs {
			if !q.dead {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = live
	}
	e.procs = append(e.procs, p)
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. fn runs concurrently with the caller in virtual
// time but never in parallel in real time.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	p.w.p = p
	e.live++
	e.register(p)
	e.atWake(e.now, p) // the first wake of an unstarted process starts it
	return p
}

// killSignal is the panic value yield raises when Shutdown unwinds a
// parked process; exec recognizes it and ends the coroutine quietly.
type killSignal struct{}

// exec is the body of one process execution: it runs fn and performs the
// death bookkeeping. It reports whether the process was unwound by
// Shutdown. Any other panic is re-raised with the process named; it
// propagates out of Engine.Run to Run's caller.
func (p *Proc) exec() (killed bool) {
	defer func() {
		p.dead = true
		p.eng.live--
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(killSignal); ok {
			killed = true
			return
		}
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}()
	fn := p.fn
	p.fn = nil // a finished process must not pin its closure
	fn(p)
	return false
}

// yield gives up control until something wakes the process. The process
// must already have arranged for that (directly or via a scheduled event),
// otherwise it sleeps forever and Run reports a deadlock.
//
// The yielding coroutine runs the dispatcher itself: plain events and
// machine steps execute inline, and if the next runnable event is this
// process's own wake, control never leaves the coroutine. Otherwise the
// popped target is handed to Run, which resumes it.
func (p *Proc) yield() {
	e := p.eng
	next := e.dispatch()
	if next == p {
		return
	}
	e.next = next
	if !p.co.yield(struct{}{}) {
		panic(killSignal{})
	}
}

// Sleep suspends the process for d of virtual time. Even a zero sleep is a
// scheduling point: other events at this instant run first, matching the
// "post then yield" semantics protocol code relies on.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.eng.atWake(p.eng.now.Add(d), p)
	p.yield()
}

// parkBlocked suspends the process with no wake-up scheduled; the waker is
// responsible for scheduling a wake via scheduleWake. The engine counts
// parked non-daemon processes to detect deadlock, and all parked processes
// to verify teardown (see CheckLeaks).
func (p *Proc) parkBlocked() {
	if !p.daemon {
		p.eng.blocked++
	}
	p.parked = true
	p.eng.parked++
	p.yield()
	p.parked = false
	p.eng.parked--
	if !p.daemon {
		p.eng.blocked--
	}
}

// scheduleWake schedules this process to resume at the current instant
// (after already-queued events). Used by Signal/Queue wakers.
func (p *Proc) scheduleWake() {
	p.eng.atWake(p.eng.now, p)
}
