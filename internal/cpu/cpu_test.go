package cpu

import (
	"math"
	"testing"

	"vibe/internal/sim"
)

func TestUseAccountsBusyAndAdvancesTime(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	e.Spawn("p", func(p *sim.Proc) {
		c.Use(p, 100)
		if p.Now() != 100 {
			t.Errorf("time = %v, want 100ns", p.Now())
		}
		c.Use(p, 0) // no-op
	})
	e.MustRun()
	if c.Busy() != 100 {
		t.Fatalf("busy = %v, want 100ns", c.Busy())
	}
}

func TestSpinWaitIsBusy(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	s := sim.NewSignal(e)
	e.Spawn("poller", func(p *sim.Proc) {
		c.SpinWait(p, s)
	})
	e.Spawn("sig", func(p *sim.Proc) {
		p.Sleep(500)
		s.Broadcast()
	})
	e.MustRun()
	if c.Busy() != 500 {
		t.Fatalf("busy = %v, want 500ns", c.Busy())
	}
}

func TestBlockWaitIsIdlePlusWakeCost(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	s := sim.NewSignal(e)
	e.Spawn("blocker", func(p *sim.Proc) {
		c.BlockWait(p, s, 30)
	})
	e.Spawn("sig", func(p *sim.Proc) {
		p.Sleep(500)
		s.Broadcast()
	})
	e.MustRun()
	if c.Busy() != 30 {
		t.Fatalf("busy = %v, want 30ns (wake cost only)", c.Busy())
	}
}

func TestMeterUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	s := sim.NewSignal(e)
	var spinU, blockU float64
	e.Spawn("p", func(p *sim.Proc) {
		m := c.StartMeter()
		c.SpinWait(p, s) // whole interval busy
		spinU = m.Utilization()

		m2 := c.StartMeter()
		c.BlockWait(p, s, 10) // mostly idle
		blockU = m2.Utilization()
		if busy := c.busy - m2.busyStart; busy != 10 {
			t.Errorf("busy since meter start = %v", busy)
		}
		if elapsed := p.Now().Sub(m2.timeStart); elapsed != 1010 {
			t.Errorf("elapsed since meter start = %v", elapsed)
		}
	})
	e.Spawn("sig", func(p *sim.Proc) {
		p.Sleep(1000)
		s.Broadcast()
		p.Sleep(1000)
		s.Broadcast()
	})
	e.MustRun()
	if spinU != 1.0 {
		t.Errorf("spin utilization = %v, want 1.0", spinU)
	}
	want := 10.0 / 1010.0
	if math.Abs(blockU-want) > 1e-9 {
		t.Errorf("block utilization = %v, want %v", blockU, want)
	}
}

func TestTimeoutVariants(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	s := sim.NewSignal(e)
	var blockOK bool
	e.Spawn("p", func(p *sim.Proc) {
		blockOK = c.BlockWaitTimeout(p, s, 50, 5)
	})
	e.MustRun()
	if blockOK {
		t.Error("timeout should report false")
	}
	// Only the 5ns wake cost is busy; the blocked 50ns are idle.
	if c.Busy() != 5 {
		t.Errorf("busy = %v, want 5ns", c.Busy())
	}
}

func TestEmptyMeterUtilizationZero(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	m := c.StartMeter()
	if u := m.Utilization(); u != 0 {
		t.Fatalf("utilization of empty interval = %v", u)
	}
}

func TestCharge(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	c.Charge(42)
	if c.Busy() != 42 {
		t.Fatalf("busy = %v", c.Busy())
	}
}

// TestWaitAttribution pins the busy-time breakdown the metrics layer
// exports: spin waits land in SpinBusy, blocking-wait wake costs in
// WakeBusy, and plain compute in neither, with the wait counters tracking
// how many waits of each kind ran.
func TestWaitAttribution(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	s := sim.NewSignal(e)
	e.Spawn("p", func(p *sim.Proc) {
		c.Use(p, 100)        // compute: busy, neither spin nor wake
		c.SpinWait(p, s)     // 200ns of spinning
		c.BlockWait(p, s, 7) // idle, then 7ns wake cost
	})
	e.Spawn("sig", func(p *sim.Proc) {
		p.Sleep(300)
		s.Broadcast()
		p.Sleep(400)
		s.Broadcast()
	})
	e.MustRun()
	if c.SpinBusy() != 200 {
		t.Errorf("SpinBusy = %v, want 200ns", c.SpinBusy())
	}
	if c.WakeBusy() != 7 {
		t.Errorf("WakeBusy = %v, want 7ns", c.WakeBusy())
	}
	if c.Busy() != 100+200+7 {
		t.Errorf("Busy = %v, want 307ns", c.Busy())
	}
	if c.SpinWaits() != 1 || c.BlockWaits() != 1 {
		t.Errorf("waits = %d spin, %d block, want 1 and 1", c.SpinWaits(), c.BlockWaits())
	}
}

// TestInterleavedWaitersAttribution drives two waiters of different kinds
// on one CPU: the spinner's whole wait is busy, the blocker contributes
// only its wake cost, and a meter over the interval sees exactly that sum.
// (Blocked time is idle even while another process is spinning — busy time
// is a single accumulator per CPU, as getrusage would report it.)
func TestInterleavedWaitersAttribution(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	spinSig := sim.NewSignal(e)
	blockSig := sim.NewSignal(e)
	m := c.StartMeter()
	e.Spawn("spinner", func(p *sim.Proc) {
		c.SpinWait(p, spinSig) // fires at t=600
	})
	e.Spawn("blocker", func(p *sim.Proc) {
		c.BlockWait(p, blockSig, 25) // fires at t=200
	})
	e.Spawn("sig", func(p *sim.Proc) {
		p.Sleep(200)
		blockSig.Broadcast()
		p.Sleep(400)
		spinSig.Broadcast()
	})
	e.MustRun()
	if c.SpinBusy() != 600 {
		t.Errorf("SpinBusy = %v, want 600ns", c.SpinBusy())
	}
	if c.WakeBusy() != 25 {
		t.Errorf("WakeBusy = %v, want 25ns", c.WakeBusy())
	}
	if got := c.busy - m.busyStart; got != 625 {
		t.Errorf("busy since meter start = %v, want 625ns", got)
	}
	// The blocker's wake cost (t=200..225) overlaps the spinner's wait, so
	// the run ends with the spinner at t=600.
	if got := e.Now().Sub(m.timeStart); got != 600 {
		t.Errorf("elapsed since meter start = %v, want 600ns", got)
	}
}

// TestBlockWaitTimeoutChargesWakeOnce: the wake cost is charged exactly
// once per wait, on success and on timeout alike.
func TestBlockWaitTimeoutChargesWakeOnce(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e)
	s := sim.NewSignal(e)
	e.Spawn("p", func(p *sim.Proc) {
		if c.BlockWaitTimeout(p, s, 50, 5) {
			t.Error("wait should have timed out")
		}
		if c.BlockWaitTimeout(p, s, 1000, 5) {
			t.Error("nobody signals; second wait should time out too")
		}
	})
	e.MustRun()
	if c.WakeBusy() != 10 || c.BlockWaits() != 2 {
		t.Fatalf("wake = %v waits = %d, want 10ns and 2", c.WakeBusy(), c.BlockWaits())
	}
	if c.Busy() != 10 {
		t.Fatalf("busy = %v, want 10ns (blocked time is idle)", c.Busy())
	}
}
