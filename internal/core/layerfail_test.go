package core

import (
	"errors"
	"strings"
	"testing"

	"vibe/internal/fault"
	"vibe/internal/mp"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/trace"
	"vibe/internal/via"
)

// linkDownFrom takes host's link down from start (empty: the start of
// the run) until the run ends.
func linkDownFrom(host int, start string) *fault.Plan {
	return &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindLinkDown, Port: &host, Start: start}}}
}

// wantSetupTimeout checks that a layer's connection setup failed the
// cell with the VIA timeout as an ordinary error, not a process panic.
func wantSetupTimeout(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, via.ErrTimeout) {
		t.Errorf("err = %v, want one wrapping via.ErrTimeout", err)
	}
	if err != nil && strings.Contains(err.Error(), "panicked") {
		t.Errorf("setup failure surfaced as a panic: %v", err)
	}
}

// TestLayerSetupFailureIsAnError: with host 1's link down for the whole
// run, no connection of the mp, get/put or DSM layer can be set up. Each
// driver must report the setup timeout as its error.
func TestLayerSetupFailureIsAnError(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Config) error
	}{
		{"mpPingPong", func(cfg Config) error {
			_, err := mpPingPong(cfg, 64, mp.DefaultConfig())
			return err
		}},
		{"GPLatency", func(cfg Config) error {
			_, _, err := GPLatency(cfg, 64)
			return err
		}},
		{"DSMLockContention", func(cfg Config) error {
			_, _, err := DSMLockContention(cfg, 2, 1)
			return err
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			cfg := quickCfg(provider.CLAN())
			cfg.Fault = linkDownFrom(1, "")
			wantSetupTimeout(t, d.run(cfg))
		})
	}
}

// dsmNICRecords runs a fault-free, traced two-node DSMLockContention
// and returns the instants of the NIC trace records on host inst whose
// display name satisfies match.
func dsmNICRecords(t *testing.T, inst int32, match func(name string) bool) []sim.Time {
	t.Helper()
	cfg := quickCfg(provider.CLAN())
	rec := &trace.Recorder{}
	cfg.Instr = &Instr{Trace: rec}
	if _, _, err := DSMLockContention(cfg, 2, 1); err != nil {
		t.Fatal(err)
	}
	var at []sim.Time
	for _, e := range rec.Entries() {
		if e.Kind.Track == sim.TrackNIC && e.Inst == inst && match(string(e.Kind.AppendName(nil, &e.Args))) {
			at = append(at, e.At)
		}
	}
	return at
}

// TestDSMManagerConnectFailureIsAnError breaks only the DSM lock
// manager's connection. A two-node DSM world first connects its get/put
// mesh (two connections) and then the manager link (one more); node 1
// receives the accept of the second and of the third. A traced
// fault-free run gives the instant the second lands; host 1's link goes
// down just after it, so the get/put mesh is up and only the manager's
// connect times out.
func TestDSMManagerConnectFailureIsAnError(t *testing.T) {
	accepts := dsmNICRecords(t, 1, func(name string) bool {
		return strings.HasPrefix(name, "rx kind=7 ") // via's conn-accept packet
	})
	if len(accepts) != 2 {
		t.Fatalf("node 1 received %d connection accepts, want 2 (get/put, manager)", len(accepts))
	}
	cfg := quickCfg(provider.CLAN())
	cfg.Fault = linkDownFrom(1, provider.FormatDuration(accepts[0].Sub(0)+1))
	_, _, err := DSMLockContention(cfg, 2, 1)
	wantSetupTimeout(t, err)
	if err == nil || !strings.Contains(err.Error(), "dsm-mgr") || strings.Contains(err.Error(), "getput") {
		t.Errorf("err = %v, want the manager's connect to fail and the get/put mesh to connect", err)
	}
}

// TestDSMManagerSendFailureIsAnError: the lock manager's first message
// on node 0 is the release of the first barrier. Every packet node 0
// sends from that doorbell on is dropped, so the release never gets
// through and its send fails once retransmission gives up. The manager
// must report that as the cell's error, not panic.
func TestDSMManagerSendFailureIsAnError(t *testing.T) {
	sends := dsmNICRecords(t, 0, func(name string) bool {
		return strings.HasPrefix(name, "doorbell ") && strings.HasSuffix(name, " len=12") // a manager message
	})
	if len(sends) == 0 {
		t.Fatal("node 0 sent no manager message")
	}
	cfg := quickCfg(provider.CLAN())
	host := 0
	cfg.Fault = &fault.Plan{Faults: []fault.Spec{{Kind: fault.KindDrop, Port: &host, Start: provider.FormatDuration(sends[0].Sub(0))}}}
	_, _, err := DSMLockContention(cfg, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "dsm manager barrier") {
		t.Errorf("err = %v, want the manager's barrier release to fail", err)
	}
	if err != nil && strings.Contains(err.Error(), "panicked") {
		t.Errorf("manager send failure surfaced as a panic: %v", err)
	}
}
