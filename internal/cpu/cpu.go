// Package cpu provides busy/idle accounting for simulated host processors.
// It is the simulation's substitute for getrusage(2), which the paper uses
// to measure CPU utilization: time a process spends computing, copying, or
// spinning in a polling loop is busy; time parked in a blocking wait is
// idle.
package cpu

import "vibe/internal/sim"

// CPU accumulates the busy time of one simulated processor, attributed by
// how it was spent: spin is the busy time burned in polling loops, wake
// the busy time charged for interrupt/reschedule paths after blocking
// waits; the remainder is compute/copy work. Idle time is derived: it is
// elapsed virtual time not accounted busy.
type CPU struct {
	eng  *sim.Engine
	busy sim.Duration
	spin sim.Duration
	wake sim.Duration

	spinWaits  uint64
	blockWaits uint64
}

// New returns a CPU bound to e with zero accumulated busy time.
func New(e *sim.Engine) *CPU { return &CPU{eng: e} }

// Use models p computing on the CPU for d: virtual time advances and the
// whole span is accounted busy.
func (c *CPU) Use(p *sim.Proc, d sim.Duration) {
	if d == 0 {
		return
	}
	c.busy += d
	p.Sleep(d)
}

// Charge accounts d as busy without advancing time. It models work that is
// already covered by an enclosing Sleep (rare; prefer Use).
func (c *CPU) Charge(d sim.Duration) { c.busy += d }

// SpinWait parks p until sig fires, accounting the entire wait as busy:
// the process is burning cycles in a polling loop.
func (c *CPU) SpinWait(p *sim.Proc, sig *sim.Signal) {
	start := p.Now()
	sig.Wait(p)
	d := p.Now().Sub(start)
	c.busy += d
	c.spin += d
	c.spinWaits++
}

// BlockWait parks p until sig fires with the CPU idle, then accounts
// wakeCost busy time for the interrupt/reschedule path.
func (c *CPU) BlockWait(p *sim.Proc, sig *sim.Signal, wakeCost sim.Duration) {
	sig.Wait(p)
	c.blockWaits++
	c.wake += wakeCost
	c.Use(p, wakeCost)
}

// BlockWaitTimeout is BlockWait with a deadline; it reports false on
// timeout. The wake cost is charged in both cases (the kernel runs either
// way).
func (c *CPU) BlockWaitTimeout(p *sim.Proc, sig *sim.Signal, d sim.Duration, wakeCost sim.Duration) bool {
	ok := sig.WaitTimeout(p, d)
	c.blockWaits++
	c.wake += wakeCost
	c.Use(p, wakeCost)
	return ok
}

// Busy reports total accumulated busy time.
func (c *CPU) Busy() sim.Duration { return c.busy }

// SpinBusy reports the busy time spent spinning in polling waits.
func (c *CPU) SpinBusy() sim.Duration { return c.spin }

// WakeBusy reports the busy time charged for blocking-wait wakeups.
func (c *CPU) WakeBusy() sim.Duration { return c.wake }

// SpinWaits and BlockWaits report how many waits of each kind ran.
func (c *CPU) SpinWaits() uint64  { return c.spinWaits }
func (c *CPU) BlockWaits() uint64 { return c.blockWaits }

// Meter measures CPU utilization over an interval, like bracketing a test
// with two getrusage calls.
type Meter struct {
	cpu       *CPU
	busyStart sim.Duration
	timeStart sim.Time
}

// StartMeter begins measuring utilization of c.
func (c *CPU) StartMeter() *Meter {
	return &Meter{cpu: c, busyStart: c.busy, timeStart: c.eng.Now()}
}

// Utilization reports the fraction of wall (virtual) time the CPU was busy
// since the meter started, in [0,1]. An empty interval reports 0.
func (m *Meter) Utilization() float64 {
	elapsed := m.cpu.eng.Now().Sub(m.timeStart)
	if elapsed <= 0 {
		return 0
	}
	u := float64(m.cpu.busy-m.busyStart) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// BusySince reports busy time accumulated since the meter started.
func (m *Meter) BusySince() sim.Duration { return m.cpu.busy - m.busyStart }

// Elapsed reports virtual time since the meter started.
func (m *Meter) Elapsed() sim.Duration { return m.cpu.eng.Now().Sub(m.timeStart) }
