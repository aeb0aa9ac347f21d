package metrics

import (
	"encoding/json"
	"io"
)

// WriteJSON writes the snapshot as key-sorted, indented JSON — the
// machine-readable sibling of Render, and exactly the map embedded in
// saved result sets: histograms flatten to their .p50/.p90/.p99/.max/
// .count summary keys (see Map). encoding/json emits map keys sorted, so
// two writes of the same snapshot are byte-identical.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s.Map(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// MergedSnapshot merges every non-nil collector into one snapshot: the
// cross-scenario roll-up written as metrics.json and served on vibed's
// /metrics. Each collector's samples are replayed, under its lock, through
// the same registry writes a single collector applies across workers.
func MergedSnapshot(cols ...*Collector) Snapshot {
	agg := NewCollector()
	for _, c := range cols {
		if c != nil {
			c.mu.Lock()
			agg.Merge(c.reg.s)
			c.mu.Unlock()
		}
	}
	return agg.Snapshot()
}
