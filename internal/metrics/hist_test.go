package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestHistBucketBounds checks every bucket index round-trips: a value maps
// to a bucket whose [lo, hi) range contains it, and bucket ranges tile the
// axis without gaps.
func TestHistBucketBounds(t *testing.T) {
	// Values here are exactly representable as float64 so the [lo, hi)
	// containment check is not confused by conversion rounding (bucketing
	// itself is pure uint64 arithmetic).
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1 << 40, 1 << 62, (1 << 62) + (1 << 61)} {
		idx := histBucket(v)
		if idx < 0 || idx >= HistBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, idx)
		}
		lo, hi := histBounds(idx)
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("v=%d in bucket %d with bounds [%g, %g)", v, idx, lo, hi)
		}
	}
	// Ranges tile: each bucket's hi is the next bucket's lo.
	for i := 0; i < histBucket(math.MaxInt64); i++ {
		_, hi := histBounds(i)
		lo, _ := histBounds(i + 1)
		if hi != lo {
			t.Fatalf("gap between buckets %d and %d: hi=%g lo=%g", i, i+1, hi, lo)
		}
	}
}

// TestHistQuantile checks the estimator against a known distribution: with
// log-spaced buckets the estimate must land within one sub-bucket (a
// factor of 1+1/histSub) of the true quantile, and p100 is exact.
func TestHistQuantile(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want/1.30 || got > tc.want*1.30 {
			t.Errorf("Quantile(%g) = %g, want within 30%% of %g", tc.q, got, tc.want)
		}
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %g, want exact 1000", h.Max())
	}
	if got := h.Quantile(1.0); got != 1000 {
		t.Errorf("Quantile(1.0) = %g, want clamped to max", got)
	}
	if h.sum != 500500 {
		t.Errorf("sum = %g, want 500500", h.sum)
	}
}

// TestHistObserveClamps checks negative and NaN observations clamp to zero
// instead of corrupting the distribution.
func TestHistObserveClamps(t *testing.T) {
	var h Hist
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.Count() != 2 || h.sum != 0 || h.Max() != 0 {
		t.Errorf("clamped hist: count=%d sum=%g max=%g", h.Count(), h.sum, h.Max())
	}
}

// TestHistCollectorMerge checks the across-workers path: two registries
// observing disjoint halves of a population merge into the same
// distribution one registry observing all of it would have.
func TestHistCollectorMerge(t *testing.T) {
	r1, r2, all := New(), New(), New()
	for i := 1; i <= 100; i++ {
		all.Observe("lat", float64(i*10))
		if i%2 == 0 {
			r1.Observe("lat", float64(i*10))
		} else {
			r2.Observe("lat", float64(i*10))
		}
	}
	col := NewCollector()
	col.Merge(r1.Snapshot())
	col.Merge(r2.Snapshot())
	merged := col.Snapshot()
	want := all.Snapshot()

	mh, wh := merged[0].Hist, want[0].Hist
	if mh.Count() != wh.Count() || mh.sum != wh.sum || mh.Max() != wh.Max() {
		t.Fatalf("merged count/sum/max = %d/%g/%g, want %d/%g/%g",
			mh.Count(), mh.sum, mh.Max(), wh.Count(), wh.sum, wh.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if mh.Quantile(q) != wh.Quantile(q) {
			t.Errorf("Quantile(%g): merged %g != single %g", q, mh.Quantile(q), wh.Quantile(q))
		}
	}
	if merged[0].Value != float64(mh.Count()) {
		t.Errorf("hist sample Value = %g, want count %d", merged[0].Value, mh.Count())
	}
}

// TestHistSnapshotImmutable checks snapshots are isolated from later
// recording and later merges — the aliasing bugs a shared *Hist would
// cause.
func TestHistSnapshotImmutable(t *testing.T) {
	r := New()
	r.Observe("h", 10)
	snap := r.Snapshot()
	r.Observe("h", 1e6)
	if snap[0].Hist.Count() != 1 || snap[0].Hist.Max() != 10 {
		t.Error("registry snapshot mutated by later Observe")
	}

	col := NewCollector()
	col.Merge(snap)
	merged := col.Snapshot()
	col.Merge(snap)
	if merged[0].Hist.Count() != 1 {
		t.Error("collector snapshot mutated by later Merge")
	}
	if snap[0].Hist.Count() != 1 {
		t.Error("source snapshot mutated by Merge")
	}
}

// TestHistMap checks the flattened form embedded in result sets: the five
// summary sub-keys, and plain keys untouched.
func TestHistMap(t *testing.T) {
	r := New()
	r.Add("n", 3)
	for i := 0; i < 10; i++ {
		r.Observe("lat_ns", 100)
	}
	m := r.Snapshot().Map()
	if m["n"] != 3 {
		t.Errorf("counter key: %v", m["n"])
	}
	for _, k := range []string{"lat_ns.p50", "lat_ns.p90", "lat_ns.p99", "lat_ns.max", "lat_ns.count"} {
		if _, ok := m[k]; !ok {
			t.Errorf("missing flattened key %q", k)
		}
	}
	if m["lat_ns.count"] != 10 || m["lat_ns.max"] != 100 {
		t.Errorf("count=%g max=%g", m["lat_ns.count"], m["lat_ns.max"])
	}
	if _, ok := m["lat_ns"]; ok {
		t.Error("histogram key leaked unflattened into the map")
	}
}

// TestSnapshotRenderDeterministic is the ordering regression guard: a
// snapshot with every kind present renders — and JSON-embeds — to the
// exact same bytes twice in a row, and across two collectors fed the same
// snapshots in different orders. Key order comes from the single sort at
// snapshot time, never from map iteration.
func TestSnapshotRenderDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := New()
		r.Gauge("sim.heap_high_water", 42)
		r.Add("nic0.doorbells", 7)
		r.Add("nic1.doorbells", 9)
		r.AddUint("fabric.bytes", 1<<20)
		for i := 0; i < 50; i++ {
			r.Observe("span.send.total_ns", float64(1000+i*37))
			r.Observe("span.recv.dma_ns", float64(10+i))
		}
		return r.Snapshot()
	}

	c1, c2 := NewCollector(), NewCollector()
	a, b := build(), build()
	c1.Merge(a)
	c1.Merge(b)
	c2.Merge(b)
	c2.Merge(a)

	render := func(c *Collector) []byte {
		var buf bytes.Buffer
		c.Snapshot().Render(&buf)
		return buf.Bytes()
	}
	r1a, r1b, r2 := render(c1), render(c1), render(c2)
	if !bytes.Equal(r1a, r1b) {
		t.Error("two renders of the same collector differ")
	}
	if !bytes.Equal(r1a, r2) {
		t.Error("merge order changed the rendered bytes")
	}

	j1, err := json.Marshal(c1.Snapshot().Map())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(c2.Snapshot().Map())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSON embedding differs across merge orders")
	}
}
