package core

import (
	"fmt"
	"testing"

	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/via"
)

// rtoFabric shapes the outage-vs-RTO fabric: a degenerate 2-host fat-tree
// (leaves 0,1; spine 2) with no alternate path, so a spine outage is a
// full partition the reliability layer alone must ride out.
func rtoFabric(m *provider.Model) *provider.Model {
	m.Network.Topology = "fattree"
	m.Network.TopologyDegree = 1
	m.Network.SwitchBufPkts = 8
	return m
}

// spinePlan kills the 2-host fat-tree's only spine for the given window.
func spinePlan(start, end string) *fault.Plan {
	sw := 2
	return &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.KindSwitchDown, Switch: &sw, Start: start, End: end},
	}}
}

// TestOutageVsRTOLadder pins the end-to-end survival semantics of fabric
// outages against the retransmission ladder, for every reliable provider:
//
//   - an outage shorter than retransmission exhaustion is absorbed by
//     go-back-N — every send and receive completes, no error callback, no
//     application-visible failure;
//   - an outage outlasting the full ladder severs the connection — exactly
//     one error callback fires and the remaining sends flush with errors.
//
// Each case runs twice on fresh systems with the same seed, and the two
// runs must agree on the exact outcome counts, since everything here is
// deterministic.
func TestOutageVsRTOLadder(t *testing.T) {
	const msgs, size = 40, 2048
	short := spinePlan("11ms", "12.5ms") // inside every provider's ladder
	long := spinePlan("11ms", "400ms")   // outlasts every provider's ladder

	for _, mk := range provider.All() {
		if !mk.Supports(uint8(via.ReliableDelivery)) {
			continue
		}
		t.Run(mk.Name, func(t *testing.T) {
			var got [2][2]FaultOutcome // [short,long][first,second run]
			for pi := range got[0] {
				label := fmt.Sprintf("run %d", pi+1)
				run := func(plan *fault.Plan) FaultOutcome {
					cfg := DefaultConfig(rtoFabric(mk.Clone()))
					cfg.Fault = plan
					out, err := FaultRun(cfg, size, msgs, via.ReliableDelivery)
					if err != nil {
						t.Fatalf("%v: %v", label, err)
					}
					return out
				}

				s := run(short)
				got[0][pi] = s
				if s.Callbacks != 0 || s.ConnBroken {
					t.Errorf("%v short outage: %d callbacks, broken=%v — want none", label, s.Callbacks, s.ConnBroken)
				}
				if s.SendFailed != 0 || s.PostRejected != 0 || s.RecvFailed != 0 {
					t.Errorf("%v short outage: failures visible (sends %d, posts %d, recvs %d)",
						label, s.SendFailed, s.PostRejected, s.RecvFailed)
				}
				if s.SendOK != msgs || s.RecvOK != msgs {
					t.Errorf("%v short outage: %d/%d sends, %d/%d recvs completed",
						label, s.SendOK, msgs, s.RecvOK, msgs)
				}

				l := run(long)
				got[1][pi] = l
				if l.Callbacks != 1 || !l.ConnBroken {
					t.Errorf("%v long outage: %d callbacks, broken=%v — want exactly 1, broken", label, l.Callbacks, l.ConnBroken)
				}
				if l.SendFailed == 0 {
					t.Errorf("%v long outage: no sends flushed with errors", label)
				}
				if l.SendOK >= msgs {
					t.Errorf("%v long outage: all %d sends succeeded through a severed connection", label, l.SendOK)
				}
			}
			for i, name := range []string{"short", "long"} {
				if got[i][0] != got[i][1] {
					t.Errorf("%s outage: same-seed runs disagree: %+v vs %+v",
						name, got[i][0], got[i][1])
				}
			}
		})
	}
}

// TestXFailoverQuick smoke-runs the XFAILOVER registry experiment at quick
// scale: every provider must survive both the single-spine outage and the
// blackout with no broken connections, and the spine-down case must show
// actual rerouting.
func TestXFailoverQuick(t *testing.T) {
	exp, err := ExperimentByID("XFAILOVER")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Run(DefaultScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != len(provider.All()) {
		t.Fatalf("got %d tables, want one per provider", len(rep.Tables))
	}
	for _, tb := range rep.Tables {
		rows := tb.Rows
		if len(rows) != 3 {
			t.Fatalf("%s: %d rows, want clean/spine-down/blackout", tb.Title, len(rows))
		}
		for _, row := range rows {
			if broken := row[len(row)-1]; broken != "no" {
				t.Errorf("%s %v: connection broke during a survivable outage", tb.Title, row[0])
			}
		}
		// spine-down: packets actually left the primary path.
		if rows[1][4] == "0" {
			t.Errorf("%s: spine-down rerouted nothing: %v", tb.Title, rows[1])
		}
	}
}
