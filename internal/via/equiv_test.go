package via

import (
	"math"
	"strconv"
	"testing"

	"vibe/internal/fabric"
	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/sim"
)

// fingerprint captures everything observable about one finished
// simulation: the virtual instant it ended at, the engine's dispatched
// event count, the full metrics snapshot, and the span accounting. Two
// runs with equal fingerprints are indistinguishable to every consumer
// of the simulation.
type fingerprint struct {
	end     sim.Time
	events  uint64
	metrics map[string]float64

	opened, closed, doubles uint64
}

// runFingerprint drives the span workload on a fresh system and returns
// the run's fingerprint. It also closes the system, so every run doubles
// as a process-leak check.
func runFingerprint(t *testing.T, m *provider.Model, seed int64, plan *fault.Plan, msgs, size int) fingerprint {
	t.Helper()
	sys := NewSystem(m, 2, seed)
	if plan != nil {
		sys.InstallFaults(plan)
	}
	sys.EnableSpans(1)
	runSpanWorkload(t, sys, msgs, size)
	fp := fingerprint{
		end:     sys.Eng.Now(),
		events:  sys.Eng.EventsDispatched(),
		metrics: metricsMap(sys),
	}
	fp.opened, fp.closed, fp.doubles = sys.spans.opened, sys.spans.closedN, sys.spans.doubles
	if err := sys.Close(); err != nil {
		t.Errorf("run leaked: %v", err)
	}
	return fp
}

// sameBits reports bit-exact float equality (NaN equals NaN), the
// comparison byte-identical JSON output reduces to.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkReplays runs a simulation twice on fresh systems and requires the
// two fingerprints to match exactly: same final virtual time, dispatched
// events, span accounting, and bit-exact metrics. run must build all of
// its inputs afresh (fault plans carry per-run state).
func checkReplays(t *testing.T, label string, run func() fingerprint) {
	t.Helper()
	g, a := run(), run()
	if g.end != a.end {
		t.Errorf("%s: end time first=%v second=%v", label, g.end, a.end)
	}
	if g.events != a.events {
		t.Errorf("%s: events dispatched first=%d second=%d", label, g.events, a.events)
	}
	if g.opened != a.opened || g.closed != a.closed || g.doubles != a.doubles {
		t.Errorf("%s: spans first=(%d,%d,%d) second=(%d,%d,%d)",
			label, g.opened, g.closed, g.doubles, a.opened, a.closed, a.doubles)
	}
	for k, gv := range g.metrics {
		av, ok := a.metrics[k]
		if !ok {
			t.Errorf("%s: metric %s only in first run", label, k)
			continue
		}
		if !sameBits(gv, av) {
			t.Errorf("%s: metric %s first=%v second=%v", label, k, gv, av)
		}
	}
	for k := range a.metrics {
		if _, ok := g.metrics[k]; !ok {
			t.Errorf("%s: metric %s only in second run", label, k)
		}
	}
}

// The TestProcModelEquivalence* tests pin that the process model replays
// exactly: every simulation below runs twice from the same seed on fresh
// engines — coroutines, idle pools and event heaps rebuilt from nothing —
// and the runs must be indistinguishable, with no process leaked at
// teardown.

// TestProcModelEquivalenceClean checks replay on the fault-free path for
// every provider model.
func TestProcModelEquivalenceClean(t *testing.T) {
	for _, m := range provider.All() {
		t.Run(m.Name, func(t *testing.T) {
			checkReplays(t, m.Name, func() fingerprint {
				return runFingerprint(t, m, 1, nil, 12, 4096)
			})
		})
	}
}

// TestProcModelEquivalenceTopologies re-checks replay with the fabric
// routed over every multi-switch topology, with finite switch buffers so
// the credit-backpressure path is exercised, both clean and under seeded
// random fault plans.
func TestProcModelEquivalenceTopologies(t *testing.T) {
	for _, topo := range []string{"fattree", "dragonfly", "torus3d"} {
		model := func() *provider.Model {
			m := provider.CLAN()
			m.Network.Topology = topo
			m.Network.TopologyDegree = 1 // one host per switch: every packet multi-hops
			m.Network.SwitchBufPkts = 2
			return m
		}
		t.Run(topo+"/clean", func(t *testing.T) {
			checkReplays(t, topo, func() fingerprint {
				return runFingerprint(t, model(), 1, nil, 12, 4096)
			})
		})
		for seed := int64(0); seed < 4; seed++ {
			seed := seed
			t.Run(topo+"/faults-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				checkReplays(t, topo, func() fingerprint {
					return runFingerprint(t, model(), seed+1, fault.RandomPlan(seed), 12, 1200)
				})
			})
		}
		// A deterministic switch outage followed by an inter-switch link
		// outage, both shorter than the RTO ladder: with one host per
		// switch every 0<->1 route dies during the windows, so the
		// unroutable-drop and retransmission-recovery paths must replay
		// exactly too.
		t.Run(topo+"/element-outage", func(t *testing.T) {
			checkReplays(t, topo, func() fingerprint {
				return runFingerprint(t, model(), 1, elementOutagePlan(topo), 12, 1200)
			})
		})
		// Seeded topology-aware random plans mix element outages with the
		// legacy packet/stall kinds.
		for seed := int64(0); seed < 3; seed++ {
			seed := seed
			t.Run(topo+"/topo-faults-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				switches := fabric.BuildTopology(model().Network, 2).Switches()
				checkReplays(t, topo, func() fingerprint {
					return runFingerprint(t, model(), seed+1, fault.RandomTopoPlan(seed, 2, switches), 12, 1200)
				})
			})
		}
	}
}

// elementOutagePlan builds the deterministic switch-down +
// switch-link-down plan for one of the degree-1 two-host equivalence
// topologies, targeting elements every 0<->1 route crosses (the fat-tree
// spine is switch 2; the other graphs attach host 1 at switch 1).
func elementOutagePlan(topo string) *fault.Plan {
	sw := 1
	link := []int{0, 1}
	if topo == "fattree" {
		sw = 2
		link = []int{0, 2}
	}
	return &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.KindSwitchDown, Switch: &sw, Start: "2ms", End: "3ms"},
		{Kind: fault.KindSwitchLinkDown, Link: link, Start: "3500us", End: "4500us"},
	}}
}

// TestProcModelEquivalenceFaults is the adversarial version: 24 seeded
// random fault plans — drops, duplicates, corruption, delays, doorbell
// and DMA stalls, broken connections, retransmission storms. Faults
// exercise every conditional branch of the engine state machines (the
// stall fall-throughs, the duplicate and gap paths, the error-ack chain)
// and the process park/wake paths behind them.
func TestProcModelEquivalenceFaults(t *testing.T) {
	const plans = 24
	for seed := 0; seed < plans; seed++ {
		t.Run(strconv.Itoa(seed), func(t *testing.T) {
			checkReplays(t, "plan "+strconv.Itoa(seed), func() fingerprint {
				return runFingerprint(t, provider.CLAN(), int64(seed)+1, fault.RandomPlan(int64(seed)), 12, 1200)
			})
		})
	}
}
