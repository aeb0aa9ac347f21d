package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// promSnapshot builds a snapshot with all three kinds.
func promSnapshot() Snapshot {
	r := New()
	r.Add("nic0.tlb.miss", 7)
	r.Gauge("sim.heap_max", 34)
	r.Observe("span.send.total_ns", 100)
	r.Observe("span.send.total_ns", 100)
	r.Observe("span.send.total_ns", 90000)
	return r.Snapshot()
}

// TestWritePrometheusFormat validates the exposition output line by line:
// legal metric names, HELP/TYPE headers per family, counter and gauge
// samples, and the histogram's cumulative _bucket/_sum/_count series
// ending in +Inf.
func TestWritePrometheusFormat(t *testing.T) {
	var b bytes.Buffer
	if err := promSnapshot().WritePrometheus(&b, "vibe"); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE vibe_nic0_tlb_miss counter\n",
		"vibe_nic0_tlb_miss 7\n",
		"# TYPE vibe_sim_heap_max gauge\n",
		"vibe_sim_heap_max 34\n",
		"# TYPE vibe_span_send_total_ns histogram\n",
		"vibe_span_send_total_ns_bucket{le=\"+Inf\"} 3\n",
		"vibe_span_send_total_ns_sum 90200\n",
		"vibe_span_send_total_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every non-comment line must be "name[{le="..."}] value" with a legal
	// name and a parseable value; buckets must be cumulative.
	var lastCum int64 = -1
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(base, "_bucket") {
				t.Fatalf("labels on a non-bucket sample: %q", line)
			}
			cum, err := strconv.ParseInt(val, 10, 64)
			if err != nil || cum < lastCum {
				t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, lastCum)
			}
			lastCum = cum
		}
		for i := 0; i < len(base); i++ {
			c := base[i]
			legal := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !legal {
				t.Fatalf("illegal metric name %q", base)
			}
		}
	}

	// Deterministic: a second write is byte-identical.
	var b2 bytes.Buffer
	if err := promSnapshot().WritePrometheus(&b2, "vibe"); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("two writes of the same snapshot differ")
	}
}

// TestWritePrometheusBucketBounds checks the le values are the layout's
// exact bucket upper bounds: observations land strictly below their le,
// and the +Inf count equals the total.
func TestWritePrometheusBucketBounds(t *testing.T) {
	var h Hist
	h.Observe(3) // unit bucket [3,4)
	h.Observe(1000)
	r := New()
	r.MergeHist("lat", &h)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `lat_bucket{le="4"} 1`) {
		t.Fatalf("unit bucket bound wrong:\n%s", out)
	}
	// 1000 lands in the bucket [1024-?) — its upper bound comes from
	// histBounds; recompute and expect that exact le.
	_, hi := histBounds(histBucket(1000))
	if !strings.Contains(out, fmt.Sprintf("lat_bucket{le=%q} 2", promValue(hi))) {
		t.Fatalf("log bucket bound %g missing:\n%s", hi, out)
	}
	if !strings.Contains(out, `lat_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
}

// TestPromName pins the sanitization rules.
func TestPromName(t *testing.T) {
	for _, tc := range []struct{ prefix, key, want string }{
		{"vibe", "nic0.tlb.miss", "vibe_nic0_tlb_miss"},
		{"vibe", "span.send.dma_ns", "vibe_span_send_dma_ns"},
		{"", "cpu0.busy_ns", "cpu0_busy_ns"},
		{"", "0weird-key", "_0weird_key"},
		{"v", "a b:c", "v_a_b_c"},
	} {
		if got := PromName(tc.prefix, tc.key); got != tc.want {
			t.Errorf("PromName(%q, %q) = %q, want %q", tc.prefix, tc.key, got, tc.want)
		}
	}
}

// TestSnapshotWriteJSON checks the -metrics-out format: key-sorted JSON
// that round-trips to exactly Snapshot.Map() — the same numbers Render
// displays — with histogram summary flattening, byte-identical across
// writes.
func TestSnapshotWriteJSON(t *testing.T) {
	snap := promSnapshot()
	var b bytes.Buffer
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(b.Bytes(), &got); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	want := snap.Map()
	if len(got) != len(want) {
		t.Fatalf("round-trip has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok || gv != v || math.IsNaN(gv) {
			t.Fatalf("key %s = %v (ok=%v), want %v", k, gv, ok, v)
		}
	}
	for _, k := range []string{"span.send.total_ns.p50", "span.send.total_ns.p99",
		"span.send.total_ns.max", "span.send.total_ns.count"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("histogram summary key %s missing", k)
		}
	}
	// Key order in the emitted bytes is sorted (encoding/json maps), so a
	// rewrite is byte-identical.
	var b2 bytes.Buffer
	if err := snap.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("two WriteJSON passes differ")
	}
}
