package core

import (
	"strings"
	"testing"

	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/provider"
	"vibe/internal/trace"
	"vibe/internal/via"
)

// instrSweep runs one reliable latency sweep on BVIA (NIC TLB with
// host-resident tables, so every metric family is exercised) with the
// given instrumentation attached.
func instrSweep(t *testing.T, instr *Instr) (lat, cpuU []float64) {
	t.Helper()
	cfg := DefaultConfig(provider.BVIA())
	cfg.Iters, cfg.Warmup = 12, 3
	cfg.Instr = instr
	l, c, err := LatencySweep(cfg, []int{4, 4096}, XferOpts{Reliability: via.ReliableDelivery})
	if err != nil {
		t.Fatal(err)
	}
	return l.Y, c.Y
}

// TestInstrumentationZeroOverhead is the tentpole's regression guard:
// attaching metrics collection, tracing, span recording, and profiling
// must not change a single result bit. Counters and spans never touch
// virtual time, and all benchmark outputs derive from virtual time alone
// — so the comparison is exact equality, not a tolerance.
func TestInstrumentationZeroOverhead(t *testing.T) {
	baseLat, baseCPU := instrSweep(t, nil)

	col := metrics.NewCollector()
	rec := &trace.Recorder{Limit: 1 << 16}
	profile := prof.New()
	instLat, instCPU := instrSweep(t, &Instr{
		Metrics:    col,
		Trace:      rec,
		SpanSample: 1,
		Profile:    profile.Scope("test"),
	})

	for i := range baseLat {
		if instLat[i] != baseLat[i] {
			t.Errorf("latency[%d]: instrumented %v != bare %v", i, instLat[i], baseLat[i])
		}
		if instCPU[i] != baseCPU[i] {
			t.Errorf("cpu[%d]: instrumented %v != bare %v", i, instCPU[i], baseCPU[i])
		}
	}
	if rec.Len() == 0 {
		t.Error("trace recorder captured nothing")
	}
	if col.Systems() == 0 {
		t.Error("collector merged no systems")
	}
	if profile.Len() == 0 {
		t.Error("profiler attributed nothing")
	}
	if v, ok := col.Snapshot().Map()["span.completed"]; !ok || v == 0 {
		t.Error("span recording enabled but no spans completed")
	}
}

// TestInstrumentationCoverage checks the collector sees every component
// family the metrics layer promises: engine, CPUs, TLB, reliability
// window, NIC data path, VIPL counters, and the fabric.
func TestInstrumentationCoverage(t *testing.T) {
	col := metrics.NewCollector()
	instrSweep(t, &Instr{Metrics: col, SpanSample: 1})

	snap := col.Snapshot().Map()
	mustHave := []string{
		"sim.events_dispatched",
		"cpu0.busy_ns",
		"cpu1.spin_ns",
		"nic0.tlb.misses",
		"nic0.window.acked",
		"nic0.frags.sent",
		"nic0.busy.doorbell_ns",
		"nic0.busy.dma_ns",
		"nic1.dma.bytes_in",
		"via0.sends_posted",
		"via1.recvs_completed",
		"link0.tx_bytes",
		"fabric.bytes",
		"span.sampled",
		"span.send.total_ns.count",
		"span.send.wire_ns.count",
		"span.recv.total_ns.count",
	}
	for _, key := range mustHave {
		v, ok := snap[key]
		if !ok {
			t.Errorf("metric %q missing from snapshot", key)
			continue
		}
		if v == 0 && !strings.Contains(key, "window") {
			t.Errorf("metric %q is zero; expected activity", key)
		}
	}
	// A reliable sweep must actually ack through the window.
	if snap["nic0.window.acked"] == 0 {
		t.Error("reliable sweep produced no window acks")
	}
	// The flattened form must expose histogram percentiles.
	for _, k := range []string{"span.send.total_ns.p50", "span.send.total_ns.p99", "span.send.dma_ns.p90"} {
		if snap[k] <= 0 {
			t.Errorf("flattened percentile %q = %v, want > 0", k, snap[k])
		}
	}
}
