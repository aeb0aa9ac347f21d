package sim

import "testing"

// BenchmarkEngineSchedule measures raw event scheduling and dispatch: the
// heap push/pop path with no processes involved.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%16), fn)
		if i%64 == 63 {
			e.MustRun()
		}
	}
	e.MustRun()
}

// BenchmarkEventQueueDeep measures one push+pop cycle against a standing
// backlog of 1024 events, so heap sifts actually traverse a few levels.
func BenchmarkEventQueueDeep(b *testing.B) {
	var q eventQueue
	for i := 0; i < 1024; i++ {
		q.push(event{at: Time(i % 512), seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(event{at: Time(i % 512), seq: uint64(1024 + i)})
		q.pop()
	}
}

// BenchmarkProcYield measures the Sleep cycle of a single process: one
// scheduled wake that the yielding process dispatches itself, so control
// never leaves its coroutine.
func BenchmarkProcYield(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("yielder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.MustRun()
}

// BenchmarkPingPongHotPath measures two processes handing a queue item back
// and forth: the signal/wake/coroutine-switch sequence every simulated
// protocol exchange sits on. TestPingPongZeroAlloc gates its allocations.
func BenchmarkPingPongHotPath(b *testing.B) {
	e := NewEngine(1)
	ping := NewQueue[int](e)
	pong := NewQueue[int](e)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("server", func(p *Proc) {
		p.SetDaemon(true)
		for {
			v := ping.Pop(p)
			pong.Push(v)
		}
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	e.MustRun()
}

// benchMachine is the minimal two-segment consumer: one sleep per item,
// then done — the shape of a NIC engine transition.
type benchMachine struct{}

func (benchMachine) Begin(int) (Duration, int) { return 1, 0 }
func (benchMachine) Step(int) (Duration, int)  { return 0, StepDone }

// BenchmarkActorStep measures one served-machine item cycle — pump or
// continuation event, Begin, continuation event, Step — entirely on the
// event loop.
func BenchmarkActorStep(b *testing.B) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	q.Serve(benchMachine{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		if i%64 == 63 {
			e.MustRun()
		}
	}
	e.MustRun()
}
