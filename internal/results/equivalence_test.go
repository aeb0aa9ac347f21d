package results

import (
	"math"
	"testing"

	"vibe/internal/core"
	"vibe/internal/metrics"
)

// runRegistry regenerates the entire quick registry on fresh engines,
// with metrics collection and full span sampling attached, and returns
// the result set plus the aggregated metrics snapshot.
func runRegistry(t *testing.T) (*Set, map[string]float64) {
	t.Helper()
	sc := core.DefaultScenario(true)
	col := metrics.NewCollector()
	sc.Instr = &core.Instr{Metrics: col, SpanSample: 1}
	set := &Set{Label: "equivalence"}
	for _, e := range core.Experiments() {
		rep, err := e.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		set.Experiments = append(set.Experiments, FromReport(e.ID, rep))
	}
	return set, col.Snapshot().Map()
}

// TestProcModelRegistryEquivalence is the suite-level replay check of
// the process model: every experiment in the quick registry, run twice
// from the same seeds on fresh engines, must produce byte-identical
// results (tolerance zero, not epsilon) and byte-identical aggregated
// metrics — including the span-derived latency histograms, whose
// quantiles are compared bit-for-bit. Any divergence means some state
// (a pooled coroutine, a recycled waiter, a free list) leaks between
// simulations or the schedule depends on something other than the seed.
func TestProcModelRegistryEquivalence(t *testing.T) {
	gset, gmet := runRegistry(t)
	aset, amet := runRegistry(t)

	for _, d := range Compare(gset, aset, 0) {
		t.Errorf("%s %s: first %.17g != second %.17g", d.Experiment, d.Where, d.Base, d.New)
	}

	for k, gv := range gmet {
		av, ok := amet[k]
		if !ok {
			t.Errorf("metric %s only in first run", k)
			continue
		}
		if math.Float64bits(gv) != math.Float64bits(av) {
			t.Errorf("metric %s: first %v != second %v", k, gv, av)
		}
	}
	for k := range amet {
		if _, ok := gmet[k]; !ok {
			t.Errorf("metric %s only in second run", k)
		}
	}
}
