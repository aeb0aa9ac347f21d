package sim

import (
	"fmt"
	"math/rand"
)

// Engine is a discrete-event simulation engine. It owns the virtual clock,
// the event queue, and the set of live processes. An Engine is not safe for
// concurrent use; its processes are coroutines that run strictly one at a
// time under the engine's control. Run independent simulations on
// independent engines (they share nothing, so engines may run in parallel
// with each other).
type Engine struct {
	now    Time
	events eventQueue
	seq    uint64
	rng    *rand.Rand

	live    int // number of spawned processes that have not finished
	blocked int // processes parked on a Signal/Queue (no wake event pending)
	parked  int // processes (daemons included) parked with no wake pending

	// procs registers every spawned process so Shutdown can unwind the
	// ones still parked and CheckLeaks can name them. Dead entries are
	// compacted amortizedly on registration.
	procs []*Proc

	// idle holds coroutines whose process has finished, for reuse by a
	// later Spawn (see coro).
	idle []*coro

	// next is the process a yielding coroutine popped a wake for and
	// hands to Run to resume; nil when the yielder drained the queue.
	next *Proc

	// dispatched counts events popped and executed, for the metrics layer.
	dispatched uint64

	stopped  bool
	shutdown bool
	tracer   Tracer
}

// NewEngine returns an engine with the virtual clock at zero. The seed
// drives every source of randomness in the simulation (e.g. packet-loss
// injection); runs with equal seeds are identical.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		events: eventQueue{a: make([]event, 0, 256)},
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at instant t. Scheduling in the past panics: it
// would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// timer tracks a cancellable event's heap slot. i is maintained by the
// heap's sifts; -1 means fired, cancelled, or never scheduled.
type timer struct{ i int }

// atTimeout schedules the deadline of waiter w at instant t as a
// cancellable, closure-free event: cancelTimer removes it from the heap
// before it fires. Timeout waits use this so an abandoned deadline (the
// common case — most waits are woken, not timed out) does not linger in
// the heap until its instant arrives, deepening every sift and stretching
// the simulated run out to the last deadline.
func (e *Engine) atTimeout(t Time, w *waiter) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling timer at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, svc: w, tm: &w.tm})
}

// cancelTimer removes a pending timer event. Cancelling an already fired
// (or cancelled) timer is a no-op.
func (e *Engine) cancelTimer(tm *timer) {
	if tm.i >= 0 {
		e.events.removeAt(tm.i)
		tm.i = -1
	}
}

// atWake schedules process p to resume (or, if it has not started, to
// start) at instant t. It is the closure-free equivalent of At(t, wake).
func (e *Engine) atWake(t Time, p *Proc) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, p: p})
}

// Stop makes Run return after the current event completes. Pending events
// are discarded.
func (e *Engine) Stop() { e.stopped = true }

// dispatch advances the event loop until control must pass to a process:
// it runs plain events and machine steps inline and returns the process
// whose wake or start event it popped, or nil once the queue drains or
// Stop fires. It runs wherever control is — in Run, or in a yielding
// process (see Proc.yield), which keeps running when the returned process
// is itself.
func (e *Engine) dispatch() *Proc {
	for !e.stopped && len(e.events.a) > 0 {
		ev := e.events.pop()
		e.dispatched++
		e.now = ev.at
		if ev.tm != nil {
			ev.tm.i = -1 // fired: cancellation is a no-op from here on
		}
		if ev.svc != nil {
			// Continuation event: the machine segment runs inline, control
			// never leaves the caller (see actor.go).
			ev.svc.step(ev.pc)
			continue
		}
		if p := ev.p; p != nil {
			if p.dead {
				panic(fmt.Sprintf("sim: waking dead process %q", p.name))
			}
			return p
		}
		ev.fn()
	}
	return nil
}

// Run drives the event loop until no events remain, Stop is called, or a
// deadlock is detected. It returns an error if live processes remain
// blocked with an empty event queue (a deadlock: nobody can ever wake
// them), which is almost always a bug in the simulated protocol. A panic
// inside a process propagates out of Run with the process named; the
// engine can then only be shut down.
func (e *Engine) Run() error {
	for p := e.dispatch(); p != nil; {
		e.next = nil
		e.resume(p)
		if p = e.next; p == nil {
			p = e.dispatch()
		}
	}
	if !e.stopped && e.blocked > 0 {
		stuck := e.procNames(func(p *Proc) bool { return p.parked && !p.daemon })
		return fmt.Errorf("sim: deadlock at %v: %d process(es) blocked with no pending events: %v", e.now, e.blocked, stuck)
	}
	return nil
}

// EventsDispatched reports how many events the engine has executed.
func (e *Engine) EventsDispatched() uint64 { return e.dispatched }

// HeapHighWater reports the deepest the event queue has ever been.
func (e *Engine) HeapHighWater() int { return e.events.hw }

// MustRun is Run, panicking on deadlock. Benchmarks use it so that protocol
// bugs fail loudly.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// CheckLeaks verifies that the simulation wound down cleanly after Run:
// no events pending and every live process parked on a Signal/Queue (a
// daemon loop or a blocked waiter) rather than runnable. A live process
// that is neither parked nor waiting on a scheduled wake is a process
// the simulation lost track of. After Stop the check is vacuous (pending
// events and mid-sleep processes were deliberately abandoned), so it
// reports nil.
func (e *Engine) CheckLeaks() error {
	if e.stopped {
		return nil
	}
	if n := len(e.events.a); n > 0 {
		return fmt.Errorf("sim: %d event(s) still pending after Run", n)
	}
	if e.live == e.parked {
		return nil
	}
	stray := e.procNames(func(p *Proc) bool { return !p.parked })
	return fmt.Errorf("sim: %d live process(es) not parked after Run: %v", e.live-e.parked, stray)
}

// procNames names the live processes that match, in spawn order.
func (e *Engine) procNames(match func(*Proc) bool) []string {
	var names []string
	for _, p := range e.procs {
		if p != nil && !p.dead && match(p) {
			names = append(names, p.name)
		}
	}
	return names
}
