// Package trace records simulation events for debugging and inspection.
// It implements sim.Tracer, buffering typed records in memory with an
// optional cap, and exports them in the Chrome trace-event format (see
// chrome.go).
package trace

import "vibe/internal/sim"

// Entry is one recorded event: the engine's record plus the pid of the
// simulated system it came from (0 when the Recorder is used directly as
// a tracer; per-system tracers from ForSystem stamp 1, 2, ...).
type Entry struct {
	sim.TraceRecord
	Pid int32
}

// Recorder buffers trace entries. The zero value is unbounded; set Limit
// to cap memory, in which case the buffer is a ring: once full, each new
// entry overwrites the oldest in place. Limit must not change once
// entries are buffered.
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

// Trace implements sim.Tracer, recording with Pid 0.
func (r *Recorder) Trace(rec sim.TraceRecord) { r.record(rec, 0) }

func (r *Recorder) record(rec sim.TraceRecord, pid int32) {
	e := Entry{rec, pid}
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
	r.nextPid++
	return &systemTracer{r: r, pid: r.nextPid}
}

type systemTracer struct {
	r   *Recorder
	pid int32
}

func (t *systemTracer) Trace(rec sim.TraceRecord) { t.r.record(rec, t.pid) }

// Entries returns a copy of the buffered entries, oldest first.
func (r *Recorder) Entries() []Entry {
	out := make([]Entry, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Dropped reports entries discarded due to the Limit.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Len reports the number of buffered entries.
func (r *Recorder) Len() int { return len(r.buf) }
