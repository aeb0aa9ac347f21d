// Package metrics is the simulator's counter/gauge registry: the unified
// observability layer that surfaces the per-component costs the paper
// decomposes (doorbell processing, descriptor fetch, address translation,
// DMA, ACK/retransmit — Figures 1-7, Table 1) from the components that
// already measure them.
//
// Keys are hierarchical, dot-separated names like "nic0.tlb.miss",
// "cpu1.busy_ns" or "link0.tx_bytes"; the first segment identifies the
// component instance, so snapshots render naturally as per-component
// tables. A Registry is deliberately lock-free: it lives inside one
// single-threaded discrete-event simulation. Cross-simulation aggregation
// (the parallel experiment runner merges many systems' snapshots) goes
// through Collector, which is mutex-guarded.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind distinguishes monotonically accumulating counters from level-valued
// gauges. The distinction matters when snapshots are diffed (counters
// subtract, gauges don't) and merged (counters sum, gauges take the max —
// the natural combination for high-water marks).
type Kind uint8

const (
	// Counter accumulates: events dispatched, bytes DMAed, retransmits.
	Counter Kind = iota
	// Gauge is a level or high-water mark: heap depth, hit rate.
	Gauge
	// Histogram is a log-bucketed latency distribution (see hist.go).
	// Merging sums buckets; diffing keeps the current distribution.
	Histogram
)

func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	}
	return "counter"
}

// Sample is one named value in a snapshot. Histogram samples carry their
// distribution in Hist and expose the observation count as Value.
type Sample struct {
	Key   string
	Kind  Kind
	Value float64
	Hist  *Hist
}

// Join builds a hierarchical key from parts: Join("nic0", "tlb", "miss")
// is "nic0.tlb.miss".
func Join(parts ...string) string { return strings.Join(parts, ".") }

// Component returns the first segment of a key — the component instance
// it belongs to ("nic0.tlb.miss" -> "nic0").
func Component(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

// Registry is a single-threaded counter/gauge store. The zero value is
// ready to use; methods must not be called concurrently (use Collector to
// aggregate across goroutines).
type Registry struct {
	idx map[string]int
	s   []Sample
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

func (r *Registry) slot(key string, kind Kind) *Sample {
	if i, ok := r.idx[key]; ok {
		return &r.s[i]
	}
	if r.idx == nil {
		r.idx = make(map[string]int)
	}
	r.idx[key] = len(r.s)
	r.s = append(r.s, Sample{Key: key, Kind: kind})
	return &r.s[len(r.s)-1]
}

// Add accumulates delta into the counter named key, creating it at zero on
// first use.
func (r *Registry) Add(key string, delta float64) {
	r.slot(key, Counter).Value += delta
}

// AddUint is Add for the uint64 counters the components keep natively.
func (r *Registry) AddUint(key string, delta uint64) {
	r.slot(key, Counter).Value += float64(delta)
}

// Gauge sets the gauge named key to v.
func (r *Registry) Gauge(key string, v float64) {
	r.slot(key, Gauge).Value = v
}

// Observe records one observation into the histogram named key, creating
// it on first use.
func (r *Registry) Observe(key string, v float64) {
	s := r.slot(key, Histogram)
	if s.Hist == nil {
		s.Hist = &Hist{}
	}
	s.Hist.Observe(v)
	s.Value = float64(s.Hist.Count())
}

// SetHist installs a copy of h as the histogram named key. Components that
// maintain their own Hist values (e.g. the span tracker) publish them into
// a collection registry this way.
func (r *Registry) SetHist(key string, h *Hist) {
	s := r.slot(key, Histogram)
	s.Hist = h.Clone()
	s.Value = float64(h.Count())
}

// Snapshot returns a copy of the registry's current state, sorted by key.
// Histograms are deep-copied, so a snapshot is immutable even if the
// registry keeps recording.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, len(r.s))
	copy(out, r.s)
	for i := range out {
		if out[i].Hist != nil {
			out[i].Hist = out[i].Hist.Clone()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Snapshot is an immutable, key-sorted view of a registry (or of a
// collector's merged state).
type Snapshot []Sample

// Map flattens the snapshot to a plain key->value map, the form embedded
// in saved result sets. Histograms flatten to their summary statistics:
// key.p50, key.p90, key.p99, key.max and key.count.
func (s Snapshot) Map() map[string]float64 {
	m := make(map[string]float64, len(s))
	for _, x := range s {
		if x.Kind == Histogram && x.Hist != nil {
			m[x.Key+".p50"] = x.Hist.Quantile(0.50)
			m[x.Key+".p90"] = x.Hist.Quantile(0.90)
			m[x.Key+".p99"] = x.Hist.Quantile(0.99)
			m[x.Key+".max"] = x.Hist.Max()
			m[x.Key+".count"] = float64(x.Hist.Count())
			continue
		}
		m[x.Key] = x.Value
	}
	return m
}

// Render writes the snapshot as a per-component table: one block per
// leading key segment, metrics listed under it. The snapshot is already
// key-sorted (Snapshot construction sorts exactly once), so two renders
// of the same snapshot are byte-identical. Histograms render as their
// percentile summary.
func (s Snapshot) Render(w io.Writer) {
	last := ""
	for _, x := range s {
		comp := Component(x.Key)
		if comp != last {
			if last != "" {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%s\n", comp)
			last = comp
		}
		name := x.Key
		if len(comp) < len(name) {
			name = name[len(comp)+1:]
		}
		if x.Kind == Histogram && x.Hist != nil {
			h := x.Hist
			fmt.Fprintf(w, "  %-28s p50=%s p90=%s p99=%s max=%s n=%d\n", name,
				formatValue(h.Quantile(0.50)), formatValue(h.Quantile(0.90)),
				formatValue(h.Quantile(0.99)), formatValue(h.Max()), h.Count())
			continue
		}
		fmt.Fprintf(w, "  %-28s %s\n", name, formatValue(x.Value))
	}
}

// formatValue prints whole numbers without a fraction and everything else
// with enough precision to be useful.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// Collector aggregates snapshots from many independent simulations. It is
// safe for concurrent use: the parallel experiment runner merges cell
// results from its worker goroutines.
type Collector struct {
	mu      sync.Mutex
	systems int
	reg     Registry
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Merge folds one system's snapshot into the aggregate: a key seen for the
// first time takes the sample as-is; after that counters sum, gauges keep
// the maximum observed (high-water semantics), and histograms merge
// bucket-wise so percentiles aggregate across workers.
func (c *Collector) Merge(snap Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.systems++
	for _, x := range snap {
		n := len(c.reg.s)
		s := c.reg.slot(x.Key, x.Kind)
		if len(c.reg.s) > n {
			*s = x
			if x.Hist != nil {
				// Own a private copy: later merges mutate it, and the
				// caller's snapshot must stay immutable.
				s.Hist = x.Hist.Clone()
			}
			continue
		}
		switch x.Kind {
		case Counter:
			s.Value += x.Value
		case Histogram:
			if x.Hist == nil {
				break
			}
			if s.Hist == nil {
				s.Hist = x.Hist.Clone()
			} else {
				s.Hist.MergeFrom(x.Hist)
			}
			s.Value = float64(s.Hist.Count())
		default:
			if x.Value > s.Value {
				s.Value = x.Value
			}
		}
	}
}

// Systems reports how many snapshots have been merged.
func (c *Collector) Systems() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.systems
}

// Snapshot returns the merged state, sorted by key. Histograms are
// deep-copied so the snapshot stays stable across further merges.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Snapshot()
}
