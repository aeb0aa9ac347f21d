// Package trace records simulation events for debugging and inspection.
// It implements sim.Tracer, buffering lines in memory with an optional
// cap, and exports them in the Chrome trace-event format (see chrome.go).
package trace

import (
	"sync/atomic"

	"vibe/internal/sim"
)

// Entry is one recorded event. Pid identifies the simulated system it came
// from (0 when the Recorder is used directly as a tracer; per-system
// tracers from ForSystem stamp 1, 2, ...). Dur is zero for instantaneous
// events and positive for completed spans, which start at At and run for
// Dur of virtual time.
type Entry struct {
	At   sim.Time
	Dur  sim.Duration
	What string
	Pid  int
}

// Recorder buffers trace entries. The zero value is unbounded; set Limit
// to cap memory, in which case the buffer is a ring: once full, each new
// entry overwrites the oldest in place. (The previous implementation
// shifted the whole slice down on every append at the limit — an O(Limit)
// copy per event that made capped tracing quadratic; see
// BenchmarkTraceAtLimit.) Limit must not change once entries are buffered.
//
// A Recorder is not safe for concurrent use: it is meant to observe one
// single-threaded simulation (or several run sequentially).
type Recorder struct {
	Limit   int
	buf     []Entry
	head    int // index of the oldest entry once the ring is full
	dropped uint64
	nextPid int32
}

var _ sim.SpanTracer = (*Recorder)(nil)

// Trace implements sim.Tracer, recording with Pid 0.
func (r *Recorder) Trace(at sim.Time, what string) { r.trace(0, 0, at, what) }

// TraceSpan implements sim.SpanTracer, recording a duration-carrying
// entry with Pid 0.
func (r *Recorder) TraceSpan(at sim.Time, dur sim.Duration, what string) {
	r.trace(0, dur, at, what)
}

func (r *Recorder) trace(pid int, dur sim.Duration, at sim.Time, what string) {
	e := Entry{At: at, Dur: dur, What: what, Pid: pid}
	if r.Limit <= 0 || len(r.buf) < r.Limit {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == r.Limit {
		r.head = 0
	}
	r.dropped++
}

// ForSystem returns a tracer that records into r with a fresh pid, so
// entries from several sequentially-run simulations can be told apart
// (e.g. in the Chrome export, where each becomes its own process track).
func (r *Recorder) ForSystem() sim.Tracer {
	return &systemTracer{r: r, pid: int(atomic.AddInt32(&r.nextPid, 1))}
}

type systemTracer struct {
	r   *Recorder
	pid int
}

var _ sim.SpanTracer = (*systemTracer)(nil)

func (t *systemTracer) Trace(at sim.Time, what string) { t.r.trace(t.pid, 0, at, what) }

func (t *systemTracer) TraceSpan(at sim.Time, dur sim.Duration, what string) {
	t.r.trace(t.pid, dur, at, what)
}

// Entries returns a copy of the buffered entries, oldest first.
func (r *Recorder) Entries() []Entry {
	out := make([]Entry, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// each calls fn for every buffered entry, oldest first, without copying.
func (r *Recorder) each(fn func(Entry)) {
	for _, e := range r.buf[r.head:] {
		fn(e)
	}
	for _, e := range r.buf[:r.head] {
		fn(e)
	}
}

// Dropped reports entries discarded due to the Limit.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Len reports the number of buffered entries.
func (r *Recorder) Len() int { return len(r.buf) }

// Reset discards all buffered entries.
func (r *Recorder) Reset() {
	r.buf = r.buf[:0]
	r.head = 0
	r.dropped = 0
}
