package nicsim

import (
	"testing"
	"testing/quick"
)

// cached reports whether page is in the cache, without touching recency or
// counters.
func cached(tlb *TLB, page uint64) bool {
	_, ok := tlb.pos[page]
	return ok
}

func TestTLBMissThenHit(t *testing.T) {
	tlb := NewTLB(4, FIFO)
	if tlb.Lookup(1) {
		t.Fatal("first lookup hit")
	}
	if !tlb.Lookup(1) {
		t.Fatal("second lookup missed")
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2, FIFO)
	tlb.Lookup(1)
	tlb.Lookup(2)
	tlb.Lookup(1) // hit; FIFO does not refresh recency
	tlb.Lookup(3) // evicts 1 (oldest inserted)
	if cached(tlb, 1) {
		t.Error("FIFO kept refreshed entry 1")
	}
	if !cached(tlb, 2) || !cached(tlb, 3) {
		t.Error("FIFO evicted wrong entry")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2, LRU)
	tlb.Lookup(1)
	tlb.Lookup(2)
	tlb.Lookup(1) // refreshes 1
	tlb.Lookup(3) // evicts 2 (least recently used)
	if !cached(tlb, 1) {
		t.Error("LRU evicted refreshed entry 1")
	}
	if cached(tlb, 2) {
		t.Error("LRU kept stale entry 2")
	}
}

func TestTLBZeroCapacityAlwaysMisses(t *testing.T) {
	tlb := NewTLB(0, FIFO)
	for i := 0; i < 5; i++ {
		if tlb.Lookup(7) {
			t.Fatal("zero-capacity TLB hit")
		}
	}
	if len(tlb.order) != 0 {
		t.Fatal("zero-capacity TLB stored an entry")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(8, LRU)
	for p := uint64(0); p < 5; p++ {
		tlb.Lookup(p)
	}
	tlb.Invalidate(2)
	if cached(tlb, 2) || len(tlb.order) != 4 {
		t.Fatal("Invalidate failed")
	}
	tlb.Invalidate(99) // absent: no-op
	tlb.InvalidateRange(0, 3)
	if len(tlb.order) != 1 || !cached(tlb, 4) {
		t.Fatalf("InvalidateRange left %d entries", len(tlb.order))
	}
}

func TestTLBWorkingSetFitsNeverMissesAfterWarmup(t *testing.T) {
	for _, policy := range []TLBPolicy{FIFO, LRU} {
		tlb := NewTLB(8, policy)
		for p := uint64(0); p < 8; p++ {
			tlb.Lookup(p)
		}
		tlb.Hits, tlb.Misses = 0, 0
		for round := 0; round < 10; round++ {
			for p := uint64(0); p < 8; p++ {
				if !tlb.Lookup(p) {
					t.Fatalf("%v: miss on resident page %d", policy, p)
				}
			}
		}
	}
}

func TestTLBCyclicThrashFIFO(t *testing.T) {
	// Classic FIFO pathology: cycling over capacity+1 pages misses every
	// time.
	tlb := NewTLB(4, FIFO)
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 5; p++ {
			tlb.Lookup(p)
		}
	}
	if tlb.Hits != 0 {
		t.Fatalf("cyclic thrash produced %d hits", tlb.Hits)
	}
}

// Property: the cache never exceeds capacity and the eviction order matches
// the internal index.
func TestTLBInvariants(t *testing.T) {
	f := func(pages []uint8, cap8 uint8, lru bool) bool {
		capacity := int(cap8 % 16)
		policy := FIFO
		if lru {
			policy = LRU
		}
		tlb := NewTLB(capacity, policy)
		for _, p := range pages {
			tlb.Lookup(uint64(p))
			if len(tlb.order) > capacity {
				return false
			}
			if len(tlb.pos) != len(tlb.order) {
				return false
			}
		}
		if tlb.Hits+tlb.Misses != uint64(len(pages)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "FIFO" || LRU.String() != "LRU" {
		t.Fatal("policy names")
	}
}
