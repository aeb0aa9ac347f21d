package runner

import (
	"math"
	"testing"

	"vibe/internal/core"
	"vibe/internal/metrics"
	"vibe/internal/provider"
)

// TestIncastModelsAgree runs a small reliable RDMA-write incast
// (core.IncastRun) twice from the same seed on fresh systems, for each
// fabric model — the default crossbar and a routed fat-tree with finite
// switch buffers — and requires the runs to agree exactly on the result
// and on every collected metric, bit for bit: dispatched events, per-host
// busy and idle time (so the final virtual time), NIC, window and fabric
// counters. The workload parks every application process for almost the
// whole run while the NIC engines and the fabric generate the event
// stream, so it pins replay of the event-loop machines under sustained
// load.
func TestIncastModelsAgree(t *testing.T) {
	const senders, msgs, size = 4, 40, 64
	routed := provider.CLAN()
	routed.Network.Topology = "fattree"
	routed.Network.TopologyDegree = 4
	routed.Network.SwitchBufPkts = 8
	for _, tc := range []struct {
		name  string
		model *provider.Model
	}{
		{"crossbar", provider.CLAN()},
		{"fattree", routed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (core.TopoResult, map[string]float64) {
				col := metrics.NewCollector()
				cfg := core.DefaultConfig(tc.model)
				cfg.Instr = &core.Instr{Metrics: col}
				r, err := core.IncastRun(cfg, senders, msgs, size)
				if err != nil {
					t.Fatal(err)
				}
				return r, col.Snapshot().Map()
			}
			r1, m1 := run()
			r2, m2 := run()
			if r1 != r2 {
				t.Fatalf("results diverge: %+v vs %+v", r1, r2)
			}
			if len(m1) != len(m2) {
				t.Fatalf("metric sets diverge: %d vs %d keys", len(m1), len(m2))
			}
			for k, v := range m1 {
				if w, ok := m2[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
					t.Errorf("%s: %v vs %v", k, v, w)
				}
			}
			if m1["sim.events_dispatched"] == 0 {
				t.Fatal("incast dispatched no events")
			}
		})
	}
}
