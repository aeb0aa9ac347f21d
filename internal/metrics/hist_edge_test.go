package metrics

import (
	"math"
	"testing"
)

// TestQuantileEmptyHist pins the NaN policy for the degenerate case: an
// empty histogram reports 0 — never NaN — for every quantile and summary
// stat, so flattened result-set keys stay finite and diffable at tol 0.
func TestQuantileEmptyHist(t *testing.T) {
	var h Hist
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v != 0 || math.IsNaN(v) {
			t.Errorf("empty Quantile(%g) = %v, want 0", q, v)
		}
	}
	if h.Max() != 0 || h.sum != 0 {
		t.Errorf("empty summary = max %g sum %g, want zeros", h.Max(), h.sum)
	}

	// The flattened map and exposition formats inherit the policy.
	r := New()
	r.MergeHist("lat", &h)
	for k, v := range r.Snapshot().Map() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("flattened key %s = %v, want finite", k, v)
		}
	}
}

// TestQuantileSingleSample checks a one-observation histogram: every
// quantile reports the sample's bucket clamped to the exact max, so p50 ==
// p99 == max == the observation for values that start a bucket, and never
// exceeds the true max otherwise.
func TestQuantileSingleSample(t *testing.T) {
	for _, obs := range []float64{0, 1, 3, 1000, 1 << 30} {
		var h Hist
		h.Observe(obs)
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if math.IsNaN(v) || v > obs {
				t.Errorf("obs %g: Quantile(%g) = %g, want <= max and finite", obs, q, v)
			}
			lo, _ := histBounds(histBucket(uint64(obs)))
			if v < lo {
				t.Errorf("obs %g: Quantile(%g) = %g below bucket lo %g", obs, q, v, lo)
			}
		}
		if h.Quantile(1) != obs || h.Max() != obs || h.sum != obs {
			t.Errorf("obs %g: p100/max/sum = %g/%g/%g, want the sample",
				obs, h.Quantile(1), h.Max(), h.sum)
		}
	}
}

// TestCollectorMergeSemanticsByKind pins the per-kind merge rules side by
// side: counter keys sum across systems, gauge keys take the max (so a
// later, smaller gauge cannot lower a peak), and a key present in only one
// snapshot survives unchanged.
func TestCollectorMergeSemanticsByKind(t *testing.T) {
	c := NewCollector()

	r1 := New()
	r1.Add("work.items", 10)
	r1.Gauge("peak.depth", 9)
	r1.Gauge("only.first", 5)
	r1.Gauge("below.zero", -3) // first sighting: taken as-is, not max'd with 0
	r2 := New()
	r2.Add("work.items", 32)
	r2.Gauge("peak.depth", 4) // smaller: must NOT win
	r2.Add("only.second", 1)

	c.Merge(r1.Snapshot())
	c.Merge(r2.Snapshot())
	s := c.Snapshot()

	for _, tc := range []struct {
		key  string
		want float64
	}{
		{"work.items", 42}, // counter: sum
		{"peak.depth", 9},  // gauge: max, not last-write
		{"only.first", 5},  // singleton gauge survives
		{"only.second", 1}, // singleton counter survives
		{"below.zero", -3}, // singleton negative gauge survives
	} {
		if v, ok := s.Map()[tc.key]; !ok || v != tc.want {
			t.Errorf("%s = %v (ok=%v), want %v", tc.key, v, ok, tc.want)
		}
	}

	// Kind metadata survives the merge — a downstream WritePrometheus must
	// still see gauge vs counter to emit the right TYPE line.
	for _, x := range s {
		switch x.Key {
		case "peak.depth", "only.first", "below.zero":
			if x.Kind != Gauge {
				t.Errorf("%s merged as %v, want Gauge", x.Key, x.Kind)
			}
		case "work.items", "only.second":
			if x.Kind != Counter {
				t.Errorf("%s merged as %v, want Counter", x.Key, x.Kind)
			}
		}
	}
}

// TestCollectorMergeEmptyHist checks merging snapshots that carry an empty
// histogram: the merged histogram stays empty, reports 0 quantiles, and the
// hist sample Value (the count) is 0 — no NaN can enter a result set
// through the collector.
func TestCollectorMergeEmptyHist(t *testing.T) {
	mk := func() Snapshot {
		r := New()
		r.MergeHist("lat", &Hist{})
		return r.Snapshot()
	}
	c := NewCollector()
	c.Merge(mk())
	c.Merge(mk())
	s := c.Snapshot()
	if len(s) != 1 || s[0].Hist == nil {
		t.Fatalf("merged snapshot = %+v", s)
	}
	if s[0].Hist.Count() != 0 || s[0].Hist.Quantile(0.99) != 0 || s[0].Value != 0 {
		t.Errorf("merged empty hist: count=%d p99=%g value=%g, want zeros",
			s[0].Hist.Count(), s[0].Hist.Quantile(0.99), s[0].Value)
	}
}
