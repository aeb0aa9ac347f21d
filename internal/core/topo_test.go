package core

import (
	"testing"

	"vibe/internal/metrics"
	"vibe/internal/provider"
)

// TestFatTreeIncast128 is the routed-fabric acceptance run: a 128-node
// fat-tree incast with finite switch buffers must complete, with credit
// backpressure (not queue growth) absorbing the overload, and with per-hop
// link stats and message spans populated on the routed paths.
func TestFatTreeIncast128(t *testing.T) {
	m := provider.CLAN()
	m.Network.Topology = "fattree"
	m.Network.TopologyDegree = 8 // 16 leaves + 8 spines for 128 hosts
	m.Network.SwitchBufPkts = 8

	cfg := DefaultConfig(m)
	col := metrics.NewCollector()
	cfg.Instr = &Instr{Metrics: col, SpanSample: 1}

	const senders, msgs, size = 127, 4, 1024
	r, err := IncastRun(cfg, senders, msgs, size)
	if err != nil {
		t.Fatalf("incast failed: %v", err)
	}
	if r.MBps <= 0 || r.ElapsedUs <= 0 {
		t.Fatalf("no goodput measured: %+v", r)
	}
	// Finite buffers must have exerted backpressure without ever exceeding
	// their bound: congestion became stalls, not unbounded queues.
	if r.CreditStalls == 0 {
		t.Fatal("127-to-1 incast through 8-packet buffers produced no credit stalls")
	}
	if r.MaxQueue > m.Network.SwitchBufPkts {
		t.Fatalf("max queue %d exceeds buffer bound %d", r.MaxQueue, m.Network.SwitchBufPkts)
	}

	snap := col.Snapshot().Map()
	get := func(k string) float64 {
		v, ok := snap[k]
		if !ok {
			t.Fatalf("metric %q missing", k)
		}
		return v
	}
	// Conservation on the routed path: reliable delivery means nothing is
	// lost, so per-port totals must balance exactly.
	if d, s := get("fabric.delivered"), get("fabric.sent"); d != s {
		t.Fatalf("delivered %v != sent %v (nothing should drop)", d, s)
	}
	if get("fabric.credit_stalls") == 0 {
		t.Fatal("fabric.credit_stalls metric not populated")
	}
	// The spine all flows share (spine 0 serves host 0 under D-mod-k)
	// forwarded traffic: per-switch stats are live on routed paths.
	if get("switch16.tx_packets") == 0 {
		t.Fatal("hot spine forwarded no packets")
	}
	// Per-link stats on a routed path: the receiver's link saw the data.
	if get("link0.rx_bytes") < float64(senders*msgs*size) {
		t.Fatalf("receiver rx_bytes %v < payload %d", get("link0.rx_bytes"), senders*msgs*size)
	}
	// Spans sampled at 1-in-1 must have completed on routed paths.
	if get("span.completed") == 0 {
		t.Fatal("no spans completed")
	}
}

// TestTopologyExperimentsQuick smoke-runs the three routed-topology
// registry experiments at quick scale and checks each produced plottable,
// congestion-bearing output.
func TestTopologyExperimentsQuick(t *testing.T) {
	sc := DefaultScenario(true)
	for _, id := range []string{"XINCAST", "XALLTOALL", "XHOTSPOT"} {
		exp, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Groups) == 0 || len(rep.Groups[0].Series) == 0 {
			t.Fatalf("%s: no series", id)
		}
		s := rep.Groups[0].Series[0]
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("%s: non-positive goodput at x=%v", id, s.X[i])
			}
		}
	}
}

// TestTopologyOverrideWins pins the scenario-over-default precedence: a
// NetTopology override redirects the topology experiments' fabric.
func TestTopologyOverrideWins(t *testing.T) {
	spec := ScenarioSpec{}
	spec.Set = map[string]string{"NetTopology": "torus3d", "NetTopoDegree": "2", "NetSwitchBufPkts": "4"}
	sc, err := NewScenario(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topoConfig(sc, "fattree", 4, 8)
	if cfg.Model.Network.Topology != "torus3d" || cfg.Model.Network.TopologyDegree != 2 || cfg.Model.Network.SwitchBufPkts != 4 {
		t.Fatalf("override lost: %+v", cfg.Model.Network)
	}
}
