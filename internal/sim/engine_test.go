package sim

import (
	"fmt"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(20, func() { got = append(got, "b") })
	e.At(10, func() { got = append(got, "a") })
	e.At(20, func() { got = append(got, "c") }) // same instant: schedule order
	e.At(30, func() { got = append(got, "d") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a b c d]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30ns", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestProcSleepInterleaving(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(p *Proc, s string) { got = append(got, fmt.Sprintf("%s@%d", s, p.Now())) }
	e.Spawn("a", func(p *Proc) {
		log(p, "a1")
		p.Sleep(10)
		log(p, "a2")
		p.Sleep(20)
		log(p, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		log(p, "b1")
		p.Sleep(15)
		log(p, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a1@0 b1@0 a2@10 b2@15 a3@30]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestZeroSleepIsSchedulingPoint(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Spawn("a", func(p *Proc) {
		got = append(got, "a1")
		p.Sleep(0)
		got = append(got, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		got = append(got, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// b starts before a resumes from its zero-length sleep.
	want := "[a1 b1 a2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestSignalWakeOne(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Wait(p)
			got = append(got, fmt.Sprintf("w%d@%d", i, p.Now()))
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(10)
		s.Signal()
		p.Sleep(10)
		s.Signal()
		p.Sleep(10)
		s.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[w0@10 w1@20 w2@30]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(5)
		s.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var okEarly, okLate bool
	var tEarly, tLate Time
	e.Spawn("early", func(p *Proc) {
		okEarly = s.WaitTimeout(p, 100)
		tEarly = p.Now()
	})
	e.Spawn("late", func(p *Proc) {
		okLate = s.WaitTimeout(p, 5)
		tLate = p.Now()
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !okEarly || tEarly != 10 {
		t.Errorf("early: ok=%v at %v, want true at 10ns", okEarly, tEarly)
	}
	if okLate || tLate != 5 {
		t.Errorf("late: ok=%v at %v, want false at 5ns", okLate, tLate)
	}
	if n := len(s.waiters) - s.head; n != 0 {
		t.Errorf("leftover waiters: %d", n)
	}
}

func TestSignalTimeoutThenSignalDoesNotDoubleWake(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	wakes := 0
	e.Spawn("w", func(p *Proc) {
		s.WaitTimeout(p, 5)
		wakes++
		// Park again; the pending Signal at t=5 must not be consumed by
		// the timed-out waiter entry.
		s.Wait(p)
		wakes++
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(20)
		s.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push(7)
	v, ok := q.TryPop()
	if !ok || v != 7 {
		t.Fatalf("TryPop = %v,%v", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestPipeSerialization(t *testing.T) {
	e := NewEngine(1)
	pp := NewPipe(e)
	var ends []Time
	e.At(0, func() { ends = append(ends, pp.Occupy(10)) })
	e.At(0, func() { ends = append(ends, pp.Occupy(10)) })
	e.At(25, func() { ends = append(ends, pp.Occupy(10)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[10ns 20ns 35ns]"
	if fmt.Sprint(ends) != want {
		t.Fatalf("ends = %v, want %v", ends, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) {
		s.Wait(p) // nobody will ever signal
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestDeadlockNamesBlockedProcesses checks that a deadlock report names
// the non-daemon processes left waiting, in spawn order, and leaves out
// blocked daemons and finished processes.
func TestDeadlockNamesBlockedProcesses(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	a, b := NewSignal(e), NewSignal(e)
	e.Spawn("h0/client", func(p *Proc) { a.Wait(p) })
	e.Spawn("done", func(p *Proc) { p.Sleep(5) })
	e.Spawn("nic", func(p *Proc) {
		p.SetDaemon(true)
		NewSignal(e).Wait(p)
	})
	e.Spawn("h1/server", func(p *Proc) {
		p.Sleep(10)
		b.Wait(p)
	})
	err := e.Run()
	want := "sim: deadlock at 10ns: 2 process(es) blocked with no pending events: [h0/client h1/server]"
	if err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	served := 0
	e.Spawn("daemon", func(p *Proc) {
		p.SetDaemon(true)
		for {
			q.Pop(p)
			served++
		}
	})
	e.Spawn("client", func(p *Proc) {
		p.Sleep(10)
		q.Push(1)
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(10)
			ran++
			if ran == 3 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30ns", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		q := NewQueue[int](e)
		var got []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(e.Rand().Intn(100)))
				q.Push(i)
			})
		}
		e.Spawn("c", func(p *Proc) {
			for i := 0; i < 4; i++ {
				got = append(got, fmt.Sprintf("%v@%d", q.Pop(p), p.Now()))
			}
		})
		e.MustRun()
		return got
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if Microseconds(2.5) != 2500 {
		t.Errorf("Microseconds(2.5) = %d", Microseconds(2.5))
	}
	if got := Microseconds(2.5).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	if t0.Add(50) != 150 {
		t.Error("Add")
	}
	if Time(150).Sub(t0) != 50 {
		t.Error("Sub")
	}
}

type sliceTracer struct{ recs []TraceRecord }

func (s *sliceTracer) Trace(rec TraceRecord) { s.recs = append(s.recs, rec) }

var testKind = NewTraceKind(TrackNIC, "hello %d at %d")

func TestTracer(t *testing.T) {
	e := NewEngine(1)
	tr := &sliceTracer{}
	e.SetTracer(tr)
	e.At(10, func() { e.Trace(e.Now(), 0, testKind, 3, 7, -2) })
	e.MustRun()
	if len(tr.recs) != 1 {
		t.Fatalf("records = %v", tr.recs)
	}
	rec := tr.recs[0]
	if rec.At != 10 || rec.Dur != 0 || rec.Kind != testKind || rec.Inst != 3 || rec.Kind.Track.String() != "nic" {
		t.Fatalf("record = %+v", rec)
	}
	if name := string(rec.Kind.AppendName(nil, &rec.Args)); name != "hello 7 at -2" {
		t.Fatalf("name = %q", name)
	}
	e.SetTracer(nil)
	e.Trace(e.Now(), 0, testKind, 0) // must not panic
}

// TestTraceKindRejectsUnsafeLayouts checks the layout guard: a name is
// written into JSON verbatim, so characters it would escape, and more
// arguments than a record holds, panic at construction.
func TestTraceKindRejectsUnsafeLayouts(t *testing.T) {
	for _, layout := range []string{`a "b"`, `a\b`, "a<b", "a&b", "tab\t", "caf\u00e9", "%d %d %d %d %d %d %d"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTraceKind(%q) did not panic", layout)
				}
			}()
			NewTraceKind(TrackLink, layout)
		}()
	}
	NewTraceKind(TrackLink, "%d %d %d %d %d %d") // six arguments fit
}

// TestTracingGuardZeroAlloc pins the hot-path contract: with tracing off,
// a guarded trace call, and an unguarded one too, allocates nothing.
func TestTracingGuardZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	n := testing.AllocsPerRun(200, func() {
		if e.Tracing() {
			e.Trace(e.Now(), 0, testKind, 0, 1, 2)
		}
		e.Trace(e.Now(), 0, testKind, 0, 1, 2)
	})
	if n != 0 {
		t.Fatalf("guarded trace call allocated %.1f per run with tracing off", n)
	}
}
