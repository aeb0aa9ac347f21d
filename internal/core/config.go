// Package core implements VIBe, the paper's contribution: a
// micro-benchmark suite for evaluating VIA implementations. The suite has
// the paper's three categories — non-data-transfer benchmarks (VI,
// connection, memory-registration and CQ costs), data-transfer benchmarks
// (latency, bandwidth and CPU utilization under systematically varied VIA
// components), and programming-model benchmarks (client-server
// transactions) — plus the §3.2.5 extensions (segments, asynchronous
// handling, RDMA, pipeline length, MTU, reliability).
//
// Every benchmark runs against a simulated VIA provider (internal/via +
// internal/provider) and reports results in the paper's units:
// microseconds, MB/s, CPU utilization fraction, transactions/second.
package core

import (
	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// CompletionMode selects how benchmarks check for completed descriptors.
type CompletionMode int

const (
	// Polling spins on the work queue (VipSendDone/VipRecvDone loops):
	// lowest latency, 100% CPU.
	Polling CompletionMode = iota
	// Blocking sleeps in VipSendWait/VipRecvWait: the CPU idles, waking
	// costs an interrupt.
	Blocking
)

func (m CompletionMode) String() string {
	if m == Blocking {
		return "blocking"
	}
	return "polling"
}

// Config carries the run parameters shared by all benchmarks.
type Config struct {
	Model *provider.Model
	Seed  int64

	// Iters is the number of timed round trips per latency point; Warmup
	// round trips run first and are excluded (they prime NIC caches).
	Iters  int
	Warmup int

	// BWMessages is the number of back-to-back messages per bandwidth
	// point.
	BWMessages int

	// NonDataReps is how many times each non-data-transfer operation is
	// repeated and averaged.
	NonDataReps int

	// Timeout bounds every blocking call in the harness.
	Timeout sim.Duration

	// Instr, when non-nil, attaches instrumentation (metrics collection,
	// tracing) to every system the experiments build. See Instr.
	Instr *Instr

	// Fault, when non-nil, is the fault plan installed into every system
	// the experiments build. Each system compiles its own injector, so
	// plans replay identically across experiments and runs. Empty plans
	// are zero-cost: results stay byte-identical to a plan-free run.
	Fault *fault.Plan
}

// DefaultConfig returns the configuration used for the paper
// reproduction.
func DefaultConfig(m *provider.Model) Config {
	return Config{
		Model:       m,
		Seed:        1,
		Iters:       60,
		Warmup:      10,
		BWMessages:  150,
		NonDataReps: 8,
		Timeout:     30 * sim.Second,
	}
}

// XferOpts vary exactly one (or more) VIA components relative to the base
// configuration of §3.2.1: 100% buffer reuse, one data segment, no
// completion queue, one VI, no notify mechanism, unreliable delivery,
// send/receive transfers, polling.
type XferOpts struct {
	Mode CompletionMode

	// RecvViaCQ checks receive completions through a completion queue
	// (LATcq/BWcq).
	RecvViaCQ bool

	// VaryBuffers enables the buffer-reuse experiments (LATxlat): each
	// round trip uses the base buffer with probability ReusePct/100 and a
	// fresh pool buffer otherwise. PoolBuffers sizes the pre-registered
	// pool (default 64).
	VaryBuffers bool
	ReusePct    int
	PoolBuffers int

	// ActiveVIs opens this many VI pairs (default 1); traffic flows on
	// the first (LATnvi).
	ActiveVIs int

	// Segments splits each message across this many data segments
	// (LATseg; default 1).
	Segments int

	// Reliability selects the VIA reliability level (LATrel; default
	// Unreliable).
	Reliability via.ReliabilityLevel

	// RDMA transfers data with RDMA writes carrying immediate data
	// instead of send/receive (LATrdma).
	RDMA bool

	// Notify makes the server handle receives through an asynchronous
	// completion handler instead of waiting (LATasy).
	Notify bool

	// Window bounds outstanding sends in bandwidth tests (BWpipe);
	// 0 means unbounded.
	Window int
}

func (o XferOpts) normalized() XferOpts {
	if o.ActiveVIs < 1 {
		o.ActiveVIs = 1
	}
	if o.Segments < 1 {
		o.Segments = 1
	}
	if o.VaryBuffers && o.PoolBuffers < 2 {
		o.PoolBuffers = 64
	}
	if !o.VaryBuffers {
		o.ReusePct = 100
		o.PoolBuffers = 1
	}
	return o
}

// reuseBase reports whether round trip i reuses the base buffer under the
// Bresenham spreading of ReusePct (evenly interleaved rather than bursty).
func (o XferOpts) reuseBase(i int) bool {
	if !o.VaryBuffers {
		return true
	}
	r := o.ReusePct
	return (i+1)*r/100 > i*r/100
}

// pickBuf selects the buffer index in a pool for round trip i.
func (o XferOpts) pickBuf(i int) int {
	if o.reuseBase(i) {
		return 0
	}
	return 1 + i%(o.PoolBuffers-1)
}
