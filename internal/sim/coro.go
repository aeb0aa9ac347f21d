//go:build go1.23

// The iter package arrived in Go 1.23, but the module stays at go 1.22:
// raising the go directive would make modules that require this one with
// an older go line (hostbench/) fail to build with "updates to go.mod
// needed". The build constraint raises this one file's language version
// instead, which is what go vet's stdversion check needs to accept the
// iter import. The package therefore builds only with a go1.23 or newer
// toolchain.

package sim

import "iter"

// coro is one runtime coroutine (iter.Pull) executing process bodies.
// Control moves between the dispatcher and a coroutine by direct switch:
// no channel, no scheduler wake-up, no second P spinning up for a handoff.
// After its process returns, the coroutine parks in the engine's idle
// pool and adopts the next spawned process, so spawn-heavy paths
// (completion notify handlers) stop paying coroutine creation. Reuse is
// invisible to the simulation: it changes no event, time, or sequence
// number.
type coro struct {
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func (e *Engine) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			if c.p.exec() {
				return // unwound by Shutdown
			}
			c.p = nil
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// resume transfers control to p until it yields, starting it on a pooled
// (or fresh) coroutine if this is its start event. A panic inside the
// process propagates out of resume.
func (e *Engine) resume(p *Proc) {
	if p.co == nil {
		var c *coro
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			c = e.newCoro()
		}
		c.p, p.co = p, c
	}
	p.co.next()
}

// Shutdown terminates the engine: every started process still suspended
// (parked, or mid-sleep with its wake discarded by Stop) is unwound
// through its deferred calls, and every pooled idle coroutine is stopped,
// so no goroutine outlives the simulation. It is safe after a process
// panic has propagated out of Run. The engine must be idle (between Runs);
// after Shutdown it must not be used again.
func (e *Engine) Shutdown() {
	if e.shutdown {
		return
	}
	e.shutdown = true
	e.stopped = true
	for _, p := range e.procs {
		if p == nil || p.dead {
			continue
		}
		if p.co == nil {
			// The start event never dispatched: there is no coroutine.
			p.dead = true
			e.live--
			continue
		}
		p.co.stop()
	}
	e.procs = nil
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
}
