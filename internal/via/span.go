package via

import (
	"vibe/internal/metrics"
	"vibe/internal/sim"
)

// Message-lifecycle spans decompose each message's end-to-end latency into
// the paper's cost components (Figures 1-7): descriptor post, queue wait,
// doorbell processing, descriptor fetch, fragmentation, address
// translation, DMA, wire time, reassembly, ACK handling, and completion
// write. A span rides on the Descriptor through the send work queue and on
// each wirePacket across the fabric, accumulating virtual-time durations
// at the boundaries the NIC engines already cross — it never sleeps or
// schedules, so enabling spans cannot change simulated time.
//
// Spans close exactly once, at descriptor completion (success, error, or
// flush). Packets can outlive their message — retransmits may still be in
// flight after the original completes, and fault injection duplicates
// packets — so a closed span ignores late contributions instead of
// corrupting the next message's accounting (spans are heap-allocated and
// never pooled for the same reason).

// spanPhase indexes one cost component within a span.
type spanPhase int

const (
	phasePost       spanPhase = iota // host-side descriptor build + doorbell write (Figure 3)
	phaseQueue                       // waiting in the send queue for the NIC engine
	phaseDoorbell                    // NIC doorbell poll/processing (Figure 4)
	phaseFetch                       // descriptor fetch from host memory (Figure 4)
	phaseFrag                        // per-fragment send engine processing
	phaseXlate                       // address translation / TLB walk (Figure 5)
	phaseDMA                         // DMA data movement, both directions (Figure 5)
	phaseWire                        // serialization + propagation + fabric queueing
	phaseReassembly                  // receive-side fragment processing
	phaseAck                         // ACK round-trip tail for reliable sends (Figure 7)
	phaseCompletion                  // completion write + wakeup (Figure 6)

	numPhases
)

var phaseNames = [numPhases]string{
	"post", "queue", "doorbell", "desc_fetch", "frag", "xlate",
	"dma", "wire", "reassembly", "ack", "completion",
}

// spanPath distinguishes the message kinds whose latency distributions the
// tracker keeps separate.
type spanPath int

const (
	pathSend spanPath = iota
	pathRecv
	pathRdmaWrite
	pathRdmaRead

	numPaths
)

var pathNames = [numPaths]string{"send", "recv", "rdma_write", "rdma_read"}

// spanKinds[path][ok] is the trace record of a closed span on its node's
// span track, named like "send 4096B ok" or "rdma_read 64B err".
var spanKinds = func() (k [numPaths][2]*sim.TraceKind) {
	for p, name := range pathNames {
		k[p][0] = sim.NewTraceKind(sim.TrackSpan, name+" %dB err")
		k[p][1] = sim.NewTraceKind(sim.TrackSpan, name+" %dB ok")
	}
	return k
}()

// spanPathFor maps a descriptor op to its span path.
func spanPathFor(op Op) spanPath {
	switch op {
	case OpRdmaWrite:
		return pathRdmaWrite
	case OpRdmaRead:
		return pathRdmaRead
	}
	return pathSend
}

// msgSpan is the per-message accumulation record.
type msgSpan struct {
	path   spanPath
	node   int
	bytes  int
	start  sim.Time
	last   sim.Time // end of the last attributed phase; gaps charge via mark
	phases [numPhases]sim.Duration
	closed bool
}

// add attributes a known duration d ending at now to phase ph.
func (sp *msgSpan) add(ph spanPhase, d sim.Duration, now sim.Time) {
	if sp == nil || sp.closed || d <= 0 {
		if sp != nil && !sp.closed && now > sp.last {
			sp.last = now
		}
		return
	}
	sp.phases[ph] += d
	if now > sp.last {
		sp.last = now
	}
}

// mark attributes everything since the last attribution to phase ph —
// the "gap" form used where the component doesn't know the duration as a
// constant but does know nothing else ran on this message in between
// (e.g. queue wait between doorbell ring and engine pop).
func (sp *msgSpan) mark(ph spanPhase, now sim.Time) {
	if sp == nil || sp.closed {
		return
	}
	if d := now.Sub(sp.last); d > 0 {
		sp.phases[ph] += d
	}
	sp.last = now
}

// spanTracker owns the sampling decision and the per-path histograms.
// Single-threaded, like everything else inside one simulation.
type spanTracker struct {
	sys    *System
	sample uint64 // record every Nth message

	seen    uint64
	opened  uint64
	closedN uint64
	doubles uint64 // double-close attempts — must stay zero

	totals [numPaths]metrics.Hist
	phaseH [numPaths][numPhases]metrics.Hist
}

// open starts a span for the next message if it falls on the sampling
// stride, returning nil (everywhere a valid no-op) otherwise.
func (t *spanTracker) open(path spanPath, node, bytes int, now sim.Time) *msgSpan {
	t.seen++
	if (t.seen-1)%t.sample != 0 {
		return nil
	}
	t.opened++
	return &msgSpan{path: path, node: node, bytes: bytes, start: now, last: now}
}

// close finishes a span: residual time since the last attribution goes to
// residual (ACK tail for reliable sends, completion otherwise), the total
// and each nonzero phase feed the histograms, and — when tracing — the
// span is emitted as a complete event on the owning node's span track.
func (t *spanTracker) close(sp *msgSpan, residual spanPhase, ok bool, now sim.Time) {
	if sp == nil {
		return
	}
	if sp.closed {
		t.doubles++
		return
	}
	sp.closed = true
	t.closedN++
	if d := now.Sub(sp.last); d > 0 {
		sp.phases[residual] += d
	}
	total := now.Sub(sp.start)
	t.totals[sp.path].Observe(float64(total))
	for ph := spanPhase(0); ph < numPhases; ph++ {
		if sp.phases[ph] > 0 {
			t.phaseH[sp.path][ph].Observe(float64(sp.phases[ph]))
		}
	}
	if eng := t.sys.Eng; eng.Tracing() {
		status := 0
		if ok {
			status = 1
		}
		eng.Trace(sp.start, total, spanKinds[sp.path][status], sp.node, sp.bytes)
	}
}

// EnableSpans turns on message-lifecycle span recording, sampling every
// Nth message per system (1 = every message). Sampling keeps long chaos
// soaks and parallel suite runs allocation-bounded: only sampled messages
// allocate a span record. Call before Run; n <= 0 leaves spans disabled.
func (s *System) EnableSpans(n int) {
	if n <= 0 {
		return
	}
	s.spans = &spanTracker{sys: s, sample: uint64(n)}
}

// SpanStats reports span lifecycle totals: spans opened, spans closed, and
// double-close attempts (always zero unless there is an accounting bug).
func (s *System) SpanStats() (opened, closed, doubleCloses uint64) {
	if s.spans == nil {
		return 0, 0, 0
	}
	return s.spans.opened, s.spans.closedN, s.spans.doubles
}
