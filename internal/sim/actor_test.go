package sim

import (
	"fmt"
	"testing"
)

// traceMachine is a Machine that logs every segment it runs with the
// virtual instant it ran at: Begin sleeps item%3, an odd item sleeps 2
// more before finishing, an even item falls through inline. The log is a
// complete observation of the machine's schedule, so equal logs mean the
// service and the process loop are observationally identical.
type traceMachine struct {
	e    *Engine
	item int
	log  []string
}

const (
	tmMid = iota
	tmFinish
)

func (m *traceMachine) Begin(item int) (Duration, int) {
	m.item = item
	m.log = append(m.log, fmt.Sprintf("%d begin %d", m.e.Now(), item))
	return Duration(item % 3), tmMid
}

func (m *traceMachine) Step(pc int) (Duration, int) {
	switch pc {
	case tmMid:
		m.log = append(m.log, fmt.Sprintf("%d mid %d", m.e.Now(), m.item))
		if m.item%2 == 1 {
			return 2, tmFinish // odd: a real sleep before finishing
		}
		return m.Step(tmFinish) // even: inline fall-through, no event
	case tmFinish:
		m.log = append(m.log, fmt.Sprintf("%d done %d", m.e.Now(), m.item))
		return 0, StepDone
	}
	panic("unexpected state")
}

// serveProc drives m from q on process p, forever: the process loop that
// the Machine event contract (see actor.go) is stated against.
func serveProc[T any](q *Queue[T], p *Proc, m Machine[T]) {
	for {
		d, pc := m.Begin(q.Pop(p))
		for pc != StepDone {
			p.Sleep(d)
			d, pc = m.Step(pc)
		}
	}
}

// driveTraceMachine runs 50 pushes through the machine, served or driven
// by serveProc, and returns the observation log, the final virtual time,
// and the dispatched-event count.
func driveTraceMachine(proc bool) ([]string, Time, uint64) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	m := &traceMachine{e: e}
	if proc {
		e.Spawn("svc", func(p *Proc) {
			p.SetDaemon(true)
			serveProc(q, p, m)
		})
	} else {
		// One inert anchor event sits exactly where the Spawn's start
		// event would, keeping sequence numbers aligned (the same trick
		// via.newNic uses).
		e.At(e.Now(), func() {})
		q.Serve(m)
	}
	for i := 0; i < 50; i++ {
		i := i
		e.At(Time(i*2), func() { q.Push(i) })
	}
	e.MustRun()
	return m.log, e.Now(), e.EventsDispatched()
}

// TestServeMatchesServeProc is the event contract of actor.go in
// miniature: the same machine, fed the same pushes, driven once by the
// serveProc process loop and once as an event-loop service, must produce
// the same observation log, finish at the same virtual instant, and
// dispatch the same number of engine events.
func TestServeMatchesServeProc(t *testing.T) {
	plog, pend, pev := driveTraceMachine(true)
	slog, send, sev := driveTraceMachine(false)
	if pend != send {
		t.Errorf("end time: proc %v, service %v", pend, send)
	}
	if pev != sev {
		t.Errorf("events dispatched: proc %d, service %d", pev, sev)
	}
	if len(plog) != len(slog) {
		t.Fatalf("log length: proc %d, service %d", len(plog), len(slog))
	}
	for i := range plog {
		if plog[i] != slog[i] {
			t.Errorf("log[%d]: proc %q, service %q", i, plog[i], slog[i])
		}
	}
}

// TestServeDrainsBacklog checks that binding a service to a non-empty
// queue consumes the backlog without any Push to wake it.
func TestServeDrainsBacklog(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	q.Push(4)
	q.Push(6)
	q.Serve(&funcMachine{begin: func(v int) (Duration, int) {
		got = append(got, v)
		return 0, StepDone
	}})
	e.MustRun()
	if len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Fatalf("backlog drained as %v", got)
	}
}

// TestServeSingleConsumer checks the one-consumer invariant.
func TestServeSingleConsumer(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	m := &funcMachine{begin: func(int) (Duration, int) { return 0, StepDone }}
	q.Serve(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second Serve did not panic")
		}
	}()
	q.Serve(m)
}

// funcMachine adapts a Begin func (and optional Step) to the Machine
// interface, for small tests.
type funcMachine struct {
	begin func(int) (Duration, int)
	step  func(int) (Duration, int)
}

func (m *funcMachine) Begin(v int) (Duration, int) { return m.begin(v) }
func (m *funcMachine) Step(pc int) (Duration, int) { return m.step(pc) }

// TestCheckLeaksPendingEvents checks the two CheckLeaks modes: pending
// events are a leak on a clean engine, and vacuously fine after Stop.
func TestCheckLeaksPendingEvents(t *testing.T) {
	e := NewEngine(1)
	e.After(5, func() {})
	if err := e.CheckLeaks(); err == nil {
		t.Error("pending event not reported")
	}
	e.Stop()
	if err := e.CheckLeaks(); err != nil {
		t.Errorf("stopped engine reported leak: %v", err)
	}
}

// TestCheckLeaksParkedDaemon checks that a daemon parked on an empty
// queue is not a leak — that is the normal end state of a served NIC.
func TestCheckLeaksParkedDaemon(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.Spawn("daemon", func(p *Proc) {
		p.SetDaemon(true)
		for {
			q.Pop(p)
		}
	})
	q.Push(1)
	e.MustRun()
	if err := e.CheckLeaks(); err != nil {
		t.Errorf("parked daemon reported as leak: %v", err)
	}
	e.Shutdown()
}

// TestShutdownUnwindsGoroutines checks the teardown guarantee: after
// Shutdown, every process coroutine — parked daemons, pooled idle
// coroutines, and processes whose start event was discarded by Stop — is
// gone, so a long test run never accumulates dead simulations.
func TestShutdownUnwindsGoroutines(t *testing.T) {
	before := settledGoroutines()

	e := NewEngine(1)
	q := NewQueue[int](e)
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprintf("daemon%d", i), func(p *Proc) {
			p.SetDaemon(true)
			for {
				q.Pop(p)
			}
		})
	}
	// A finished process parks its coroutine in the idle pool.
	e.Spawn("oneshot", func(p *Proc) { p.Sleep(1) })
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	e.MustRun()
	// A process spawned after Run whose begin event Stop discards.
	e.Spawn("unstarted", func(p *Proc) {})
	e.Stop()
	e.Shutdown()
	e.Shutdown() // idempotent

	after := settledGoroutines()
	if after > before {
		t.Errorf("goroutines grew %d -> %d across engine lifecycle", before, after)
	}
}

// TestQueueSteadyStateZeroAlloc is the boxing guard for the generic
// queue: pushing and popping values through a warm Queue[T] must not
// allocate, where the old interface{} queue boxed every non-tiny value.
// The actor path gets the same guard: a full push -> pump -> Begin ->
// continuation -> Step cycle allocates nothing once the event heap is
// warm.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	for i := 0; i < 64; i++ { // warm the ring
		q.Push(1 << 20)
		q.TryPop()
	}
	if a := testing.AllocsPerRun(200, func() {
		q.Push(1 << 20)
		q.TryPop()
	}); a != 0 {
		t.Errorf("bare queue push/pop allocates %.1f/op", a)
	}

	qs := NewQueue[int](e)
	qs.Serve(&funcMachine{
		begin: func(int) (Duration, int) { return 1, 7 },
		step:  func(int) (Duration, int) { return 0, StepDone },
	})
	q.Push(1 << 20) // keep q referenced
	q.TryPop()
	for i := 0; i < 64; i++ { // warm the event heap past this load
		qs.Push(1 << 20)
	}
	e.MustRun()
	if a := testing.AllocsPerRun(200, func() {
		qs.Push(1 << 20)
		e.MustRun()
	}); a != 0 {
		t.Errorf("actor push+step cycle allocates %.1f/op", a)
	}
}
