package sim

// Pipe models a serialized transmitter without requiring the sender to be
// a process: Occupy reserves the next free slot of length d and returns the
// instant the slot ends. It is how links model bandwidth serialization for
// fire-and-forget packet sends scheduled from engine events.
type Pipe struct {
	eng  *Engine
	free Time // first instant the pipe is idle
}

// NewPipe returns an idle pipe bound to e.
func NewPipe(e *Engine) *Pipe { return &Pipe{eng: e} }

// Occupy reserves d of pipe time starting no earlier than now and returns
// the completion instant.
func (pp *Pipe) Occupy(d Duration) Time {
	return pp.OccupyFrom(pp.eng.now, d)
}

// OccupyFrom reserves d of pipe time starting no earlier than earliest and
// returns the completion instant. It models downstream stages whose input
// arrives in the future (e.g. a switch output port).
func (pp *Pipe) OccupyFrom(earliest Time, d Duration) Time {
	start := earliest
	if pp.free > start {
		start = pp.free
	}
	end := start.Add(d)
	pp.free = end
	return end
}
