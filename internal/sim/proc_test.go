package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines reports the goroutine count once it stops falling, so
// goroutines that are exiting are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestPingPongZeroAlloc gates the park/wake path: one Queue handoff cycle
// between two processes — push, wake, switch, pop, park, and back — must
// not allocate once warm. It is the deterministic counterpart of
// BenchmarkPingPongHotPath.
func TestPingPongZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	ping, pong := NewQueue[int](e), NewQueue[int](e)
	e.Spawn("server", func(p *Proc) {
		p.SetDaemon(true)
		for {
			pong.Push(ping.Pop(p))
		}
	})
	e.Spawn("client", func(p *Proc) {
		p.SetDaemon(true)
		for {
			pong.Pop(p)
		}
	})
	cycle := func() {
		ping.Push(1)
		e.MustRun()
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Errorf("queue ping-pong cycle allocates %.1f/op", a)
	}
	if err := e.CheckLeaks(); err != nil {
		t.Error(err)
	}
	e.Shutdown()
}

// TestSignalWaitTimeoutZeroAlloc gates the deadline path: a WaitTimeout
// that is signalled in time arms and cancels its deadline event without
// allocating.
func TestSignalWaitTimeoutZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	gate, s := NewSignal(e), NewSignal(e)
	timedOut := 0
	e.Spawn("waiter", func(p *Proc) {
		p.SetDaemon(true)
		for {
			gate.Wait(p)
			if !s.WaitTimeout(p, Second) {
				timedOut++
			}
		}
	})
	signal := func() { s.Signal() }
	cycle := func() {
		gate.Signal()
		e.After(1, signal)
		e.MustRun()
	}
	e.MustRun()
	for i := 0; i < 16; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Errorf("signalled WaitTimeout allocates %.1f/op", a)
	}
	if timedOut != 0 {
		t.Errorf("%d signalled waits timed out", timedOut)
	}
	if n := e.HeapHighWater(); n > 4 {
		t.Errorf("cancelled deadlines lingered: heap high water %d", n)
	}
	e.Shutdown()
}

// TestSignalFIFOCapacityBounded checks that a FIFO which never drains —
// one waiter always standing while others cycle through — reuses its
// backing array instead of leaking capacity off the front.
func TestSignalFIFOCapacityBounded(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.SetDaemon(true)
			for {
				s.Wait(p)
			}
		})
	}
	e.MustRun()
	for i := 0; i < 1000; i++ {
		s.Signal()
		e.MustRun()
	}
	if s.Waiters() != 3 {
		t.Fatalf("waiters = %d, want 3", s.Waiters())
	}
	if c := cap(s.waiters); c > 8 {
		t.Errorf("FIFO capacity grew to %d for 3 waiters", c)
	}
	e.Shutdown()
}

// TestProcPanicPropagatesFromRun checks the failure path: a panic inside
// a process comes out of Run naming the process, and Shutdown afterwards
// neither hangs nor leaves a goroutine behind — parked daemons, pooled
// idle coroutines and the dead panicking coroutine included.
func TestProcPanicPropagatesFromRun(t *testing.T) {
	before := settledGoroutines()

	e := NewEngine(1)
	q := NewQueue[int](e)
	for i := 0; i < 4; i++ {
		e.Spawn("daemon", func(p *Proc) {
			p.SetDaemon(true)
			for {
				q.Pop(p)
			}
		})
	}
	e.Spawn("oneshot", func(p *Proc) {})
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		q.Push(1)
		p.Sleep(1)
		panic("kaboom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, "kaboom") {
		t.Fatalf("Run panic = %v, want it to name process \"bad\" and carry the value", got)
	}

	done := make(chan struct{})
	go func() {
		e.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown after a process panic hung")
	}
	if after := settledGoroutines(); after > before {
		t.Errorf("goroutines grew %d -> %d across a panicked engine", before, after)
	}
}
