package runner

import (
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/via"
)

// TestIncastModelsAgree runs a small reliable RDMA-write incast twice
// from the same seed on fresh systems, for each fabric model — the default
// crossbar and a routed fat-tree with finite switch buffers — and requires
// the runs to agree exactly on dispatched events and final virtual time.
// The workload parks every application process for almost the whole run
// while the NIC engines and the fabric generate the event stream, so it
// pins replay of the event-loop machines under sustained load.
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
			ev1, end1, err := runIncast(tc.model, senders, msgs, size)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			ev2, end2, err := runIncast(tc.model, senders, msgs, size)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if ev1 != ev2 || end1 != end2 {
				t.Fatalf("runs diverge: (%d events, end %v) vs (%d events, end %v)",
					ev1, end1, ev2, end2)
			}
			if ev1 == 0 {
				t.Fatal("incast dispatched no events")
			}
		})
	}
}

// runIncast simulates the incast once on the given provider model:
// senders hosts each stream msgs reliable RDMA writes of the given size
// at host 0. It returns the engine's dispatched-event count and the final
// virtual time — the two replay fingerprints — and fails on any
// descriptor error or leaked process.
func runIncast(m *provider.Model, senders, msgs, size int) (uint64, sim.Time, error) {
	const timeout = 30 * sim.Second
	sys := via.NewSystem(m, senders+1, 1)
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	attrs := via.ViAttributes{Reliability: via.ReliableDelivery, EnableRdmaWrite: true}
	// Each sender gets its own target window in host 0's sink region; the
	// sink publishes the address segments once registration completes.
	targets := make([]via.AddressSegment, senders+1)
	published := false
	for s := 1; s <= senders; s++ {
		s := s
		disc := fmt.Sprintf("in-%d", s)
		sys.Go(0, "sink-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, err := nic.CreateVi(ctx, attrs, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			buf := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, buf)
			if err != nil {
				fail(err)
				return
			}
			targets[s] = via.AddressSegment{Addr: buf.Addr(), Handle: h}
			if s == senders {
				published = true // the last sink to register completes the exchange
			}
			req, err := nic.ConnectWait(ctx, disc, timeout)
			if err != nil {
				fail(fmt.Errorf("wait %s: %w", disc, err))
				return
			}
			if err := req.Accept(ctx, vi); err != nil {
				fail(fmt.Errorf("accept %s: %w", disc, err))
			}
			// No receive loop: RDMA writes land without consuming
			// descriptors or waking anybody on this host.
		})
		sys.Go(s, "src-"+disc, func(ctx *via.Ctx) {
			nic := ctx.OpenNic()
			vi, err := nic.CreateVi(ctx, attrs, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			if err := vi.ConnectRequest(ctx, 0, disc, timeout); err != nil {
				fail(fmt.Errorf("connect %s: %w", disc, err))
				return
			}
			for !published { // address exchange, as an application would do
				ctx.Sleep(10 * sim.Microsecond)
			}
			buf := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, buf)
			if err != nil {
				fail(err)
				return
			}
			// Post the whole stream up front (one descriptor per message,
			// all over the same buffers), then reap completions. The source
			// process parks after the burst; the NIC send engine, the wire,
			// and the acknowledgment protocol generate virtually all
			// remaining events.
			remote := targets[s]
			for i := 0; i < msgs; i++ {
				d := &via.Descriptor{
					Op:     via.OpRdmaWrite,
					Segs:   []via.DataSegment{{Addr: buf.Addr(), Handle: h, Length: size}},
					Remote: &remote,
				}
				if err := vi.PostSend(ctx, d); err != nil {
					fail(fmt.Errorf("%s post %d: %w", disc, i, err))
					return
				}
			}
			for i := 0; i < msgs; i++ {
				d, err := vi.SendWait(ctx, timeout)
				if err != nil {
					fail(fmt.Errorf("%s reap %d: %w", disc, i, err))
					return
				}
				if d.Status != via.StatusSuccess {
					fail(fmt.Errorf("%s write %d completed %v", disc, i, d.Status))
					return
				}
			}
		})
	}
	if err := sys.Run(); err != nil && runErr == nil {
		runErr = err
	}
	ev, end := sys.Eng.EventsDispatched(), sys.Eng.Now()
	if err := sys.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return ev, end, runErr
}
