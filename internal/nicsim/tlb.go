// Package nicsim provides the NIC-level mechanisms shared by every
// simulated VIA provider: the address-translation cache, MTU
// fragmentation, the retransmission window for reliable modes, and
// in-order reassembly. These are pure data structures; the timing and
// protocol live in internal/via's NIC engine.
package nicsim

// TLBPolicy selects the replacement policy of the NIC translation cache.
type TLBPolicy int

const (
	// FIFO evicts the oldest-inserted entry. The Berkeley VIA LANai
	// firmware used a simple software cache of this kind.
	FIFO TLBPolicy = iota
	// LRU evicts the least-recently-used entry.
	LRU
)

func (p TLBPolicy) String() string {
	if p == LRU {
		return "LRU"
	}
	return "FIFO"
}

// TLB is the NIC's virtual-to-physical translation cache. Keys are virtual
// page numbers. A zero-capacity TLB misses on every lookup.
type TLB struct {
	capacity int
	policy   TLBPolicy
	// order holds page numbers in eviction order (front = next victim).
	order []uint64
	pos   map[uint64]int // page -> index in order

	Hits   uint64
	Misses uint64
}

// NewTLB returns an empty cache with the given capacity and policy.
func NewTLB(capacity int, policy TLBPolicy) *TLB {
	return &TLB{capacity: capacity, policy: policy, pos: make(map[uint64]int)}
}

// Lookup consults the cache for page and reports whether it hit. On a miss
// the translation is installed (the NIC always fetches it to complete the
// transfer), evicting per policy if full.
func (t *TLB) Lookup(page uint64) bool {
	if idx, ok := t.pos[page]; ok {
		t.Hits++
		if t.policy == LRU {
			t.moveToBack(idx)
		}
		return true
	}
	t.Misses++
	t.insert(page)
	return false
}

func (t *TLB) insert(page uint64) {
	if t.capacity == 0 {
		return
	}
	if len(t.order) >= t.capacity {
		victim := t.order[0]
		t.removeAt(0)
		delete(t.pos, victim)
	}
	t.pos[page] = len(t.order)
	t.order = append(t.order, page)
}

func (t *TLB) moveToBack(idx int) {
	page := t.order[idx]
	t.removeAt(idx)
	t.pos[page] = len(t.order)
	t.order = append(t.order, page)
}

func (t *TLB) removeAt(idx int) {
	copy(t.order[idx:], t.order[idx+1:])
	t.order = t.order[:len(t.order)-1]
	for i := idx; i < len(t.order); i++ {
		t.pos[t.order[i]] = i
	}
}

// Invalidate removes page from the cache (memory deregistration must shoot
// down stale translations).
func (t *TLB) Invalidate(page uint64) {
	if idx, ok := t.pos[page]; ok {
		t.removeAt(idx)
		delete(t.pos, page)
	}
}

// InvalidateRange removes every cached page in [first, last].
func (t *TLB) InvalidateRange(first, last uint64) {
	for p := first; p <= last; p++ {
		t.Invalidate(p)
	}
}
