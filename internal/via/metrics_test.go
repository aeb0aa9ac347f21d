package via

import (
	"runtime"
	"strings"
	"testing"

	"vibe/internal/fault"
	"vibe/internal/metrics"
	"vibe/internal/provider"
)

// metricsMap writes sys's metrics into a fresh registry and flattens them.
func metricsMap(sys *System) map[string]float64 {
	r := metrics.New()
	sys.writeMetrics(r)
	return r.Snapshot().Map()
}

// TestRetransmitsMatchesMetrics checks that the typed retransmit read and
// the nic{i}.window.retransmits keys report the same total on a lossy run.
func TestRetransmitsMatchesMetrics(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.InstallFaults(&fault.Plan{Seed: 3, Faults: []fault.Spec{{Kind: fault.KindDrop, Prob: 0.1}}})
	runSpanWorkload(t, sys, 20, 1200)
	var want float64
	for k, v := range metricsMap(sys) {
		if strings.HasSuffix(k, ".window.retransmits") {
			want += v
		}
	}
	if got := sys.Retransmits(); float64(got) != want || got == 0 {
		t.Errorf("Retransmits() = %d, window.retransmits keys sum to %v (want equal and nonzero)", got, want)
	}
	if err := sys.Close(); err != nil {
		t.Error(err)
	}
}

// TestRecordMetricsHeapBytes gates the host heap that recording one
// finished system costs once the collector holds its keys: the system
// writes straight into the collector's registry, so a record allocates
// only its key strings. Building a per-system registry, sorting it into
// a snapshot and cloning each 2 KiB span histogram on the way costs a
// 2-host cLAN system with spans about 87 KiB. Heap bytes are deterministic
// on any machine, unlike a wall-time gate.
func TestRecordMetricsHeapBytes(t *testing.T) {
	const records, limit = 10, 8 << 10
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.EnableSpans(1)
	col := metrics.NewCollector()
	sys.SetCollector(col) // Run records once, creating every key
	runSpanWorkload(t, sys, 20, 4<<10)
	if v := col.Snapshot().Map()["span.completed"]; v == 0 {
		t.Fatal("no span completed: the gate would not cover histograms")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < records; i++ {
		col.Record(sys.writeMetrics)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / records
	t.Logf("one record allocated %d bytes", per)
	if per >= limit {
		t.Errorf("one record allocated %d bytes, want < %d", per, limit)
	}
	if n := col.Systems(); n != records+1 {
		t.Errorf("collector counts %d systems, want %d", n, records+1)
	}
	if err := sys.Close(); err != nil {
		t.Error(err)
	}
}
