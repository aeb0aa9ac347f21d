package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := New()
	r.Add("nic0.tlb.miss", 3)
	r.Add("nic0.tlb.miss", 2)
	r.AddUint("nic0.tlb.hit", 7)
	r.Gauge("sim.heap_high_water", 12)
	s := r.Snapshot().Map()
	if v, ok := s["nic0.tlb.miss"]; !ok || v != 5 {
		t.Fatalf("miss = %v, %v", v, ok)
	}
	if v, _ := s["nic0.tlb.hit"]; v != 7 {
		t.Fatalf("hit = %v", v)
	}
	if v, _ := s["sim.heap_high_water"]; v != 12 {
		t.Fatalf("high water = %v", v)
	}
	if _, ok := s["absent"]; ok {
		t.Fatal("absent key found")
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := New()
	r.Add("b.x", 10)
	r.Add("a.y", 1)
	r.Gauge("a.depth", 5)
	s := r.Snapshot()
	for i := 1; i < len(s); i++ {
		if s[i-1].Key >= s[i].Key {
			t.Fatalf("snapshot not sorted: %v", s)
		}
	}
}

func TestJoinAndComponent(t *testing.T) {
	if k := Join("nic0", "tlb", "miss"); k != "nic0.tlb.miss" {
		t.Fatalf("join = %q", k)
	}
	if c := Component("nic0.tlb.miss"); c != "nic0" {
		t.Fatalf("component = %q", c)
	}
	if c := Component("flat"); c != "flat" {
		t.Fatalf("component = %q", c)
	}
}

func TestRenderGroupsByComponent(t *testing.T) {
	r := New()
	r.Add("cpu0.busy_ns", 100)
	r.Add("cpu0.spin_waits", 2)
	r.Add("fabric.bytes", 4096)
	var b strings.Builder
	r.Snapshot().Render(&b)
	out := b.String()
	for _, want := range []string{"cpu0\n", "busy_ns", "fabric\n", "4096"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorMerge(t *testing.T) {
	c := NewCollector()
	r1 := New()
	r1.Add("nic0.dma.bytes_out", 100)
	r1.Gauge("sim.heap_high_water", 8)
	r2 := New()
	r2.Add("nic0.dma.bytes_out", 50)
	r2.Gauge("sim.heap_high_water", 21)
	c.Merge(r1.Snapshot())
	c.Merge(r2.Snapshot())
	s := c.Snapshot().Map()
	if v, _ := s["nic0.dma.bytes_out"]; v != 150 {
		t.Fatalf("merged counter = %v", v)
	}
	if v, _ := s["sim.heap_high_water"]; v != 21 {
		t.Fatalf("merged gauge = %v", v)
	}
	if c.Systems() != 2 {
		t.Fatalf("systems = %d", c.Systems())
	}
}

// TestCollectorConcurrent exercises Merge from many goroutines; the race
// detector (make race) proves the collector safe under the parallel
// runner.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := New()
				r.Add("x.count", 1)
				r.Gauge("x.peak", float64(i))
				c.Merge(r.Snapshot())
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot().Map()
	if v, _ := s["x.count"]; v != workers*per {
		t.Fatalf("count = %v, want %d", v, workers*per)
	}
	if v, _ := s["x.peak"]; v != per-1 {
		t.Fatalf("peak = %v", v)
	}
}
