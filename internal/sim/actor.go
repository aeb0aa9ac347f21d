package sim

// This file is the continuation-actor API: a way to run a queue consumer
// entirely on the event loop, with no process and no coroutine switch.
//
// A Machine describes one consumer as an explicit state machine, and
// Queue.Serve runs it as a service: every transition is a closure-free
// continuation event dispatched inline, so a simulation dominated by hot
// machines never leaves the dispatch loop.
//
// Event contract: a served machine allocates engine events at the (time,
// seq) positions a process running the plain loop
//
//	for {
//		d, pc := m.Begin(q.Pop(p))
//		for pc != StepDone {
//			p.Sleep(d)
//			d, pc = m.Step(pc)
//		}
//	}
//
// would allocate. A Push wakes an idle consumer by scheduling exactly one
// event at the current instant (the pump event, where the loop's Signal
// wake would go); a transition returning (d, pc) allocates exactly one
// event at now+d (the continuation, where the Sleep wake would go); Begin
// and Step bodies run inside the dispatched event. Code can therefore move
// between a process and a machine without changing any event's position.

// StepDone is returned as the next state when the machine is finished
// with the current item. The paired Duration must be zero: the service
// does not sleep before popping the next item, exactly like a process
// loop that ends an iteration and re-enters Pop.
const StepDone = -1

// pcPump marks the internal service event scheduled by Push to start an
// idle service; it carries no machine state.
const pcPump = -2

// Machine is a queue consumer written as an explicit state machine.
//
// Begin runs when an item is popped and executes up to the first sleep,
// returning (d, pc): "sleep d of virtual time, then resume at state pc".
// Step(pc) executes the segment after that sleep up to the next one.
// Returning StepDone (with d == 0) ends the item; the service pops the
// next item immediately, or goes idle when the queue is empty.
//
// A segment that reaches the next segment without sleeping should call
// its own Step(pc) inline and return the result — the fall-through is a
// plain function call, not a scheduling point, matching process code
// that simply runs on.
type Machine[T any] interface {
	Begin(item T) (Duration, int)
	Step(pc int) (Duration, int)
}

// stepper is the untyped hook closure-free callback events dispatch
// through. It is implemented by *service[T] (continuations) and *waiter
// (WaitTimeout deadlines); storing the interface in the event avoids
// making the event (and the engine) generic, and converting a pointer to
// an interface does not allocate.
type stepper interface {
	step(pc int)
}

// service drives a Machine from a Queue on the event loop.
type service[T any] struct {
	eng  *Engine
	q    *Queue[T]
	m    Machine[T]
	idle bool
}

// notify is the service-side analogue of Signal: Push calls it and it
// schedules the pump event only on the empty→non-empty transition, the
// same single wake event a popping process's Signal would schedule.
func (s *service[T]) notify() {
	if !s.idle {
		return
	}
	s.idle = false
	s.eng.atStep(s.eng.now, s, pcPump)
}

// step runs one dispatched continuation: the pending machine segment,
// then as many whole items as complete without sleeping, then either
// schedules the next continuation or goes idle.
func (s *service[T]) step(pc int) {
	var d Duration
	next := StepDone
	if pc != pcPump {
		d, next = s.m.Step(pc)
	}
	for next == StepDone {
		v, ok := s.q.TryPop()
		if !ok {
			s.idle = true
			return
		}
		d, next = s.m.Begin(v)
	}
	s.eng.atStep(s.eng.now.Add(d), s, next)
}

// atStep schedules service s to resume at state pc at instant t. It is
// the closure-free continuation analogue of atWake.
func (e *Engine) atStep(t Time, s stepper, pc int) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, svc: s, pc: pc})
}

// Serve binds m to the queue as an event-loop service: from now on every
// Push feeds the machine without any process involvement. A queue is
// served by exactly one consumer; Serve panics on a second binding.
func (q *Queue[T]) Serve(m Machine[T]) {
	if q.svc != nil {
		panic("sim: queue already has a serving machine")
	}
	q.svc = &service[T]{eng: q.eng, q: q, m: m, idle: true}
	if q.Len() > 0 {
		q.svc.notify()
	}
}
