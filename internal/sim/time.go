// Package sim implements a deterministic discrete-event simulation engine
// with process semantics.
//
// The engine advances a virtual clock over a priority queue of events.
// Simulated processes are coroutines that run strictly one at a time: a
// process executes until it blocks on a simulation primitive (Sleep, Signal,
// Queue), at which point control returns to the event loop. Ties
// in time are broken by schedule order, so a run is fully deterministic for
// a given seed.
//
// All times are virtual. Nothing in this package reads the wall clock.
package sim

import "fmt"

// Time is an instant on the virtual clock, in nanoseconds since the start
// of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Microseconds constructs a Duration from a (possibly fractional) count of
// microseconds. Cost-model parameters are naturally expressed in
// microseconds, matching the paper's reporting unit.
func Microseconds(us float64) Duration {
	return Duration(us * float64(Microsecond))
}

// Micros reports the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

func (t Time) String() string { return Duration(t).String() }
