package via

import (
	"errors"
	"os"
	"strconv"
	"testing"

	"vibe/internal/fabric"
	"vibe/internal/fault"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// --- Spec conformance: disconnect flushes, further posts are rejected ---

// VIA spec: VipDisconnect completes all outstanding descriptors with
// VIP_STATUS_FLUSHED, and posting to a VI that has left the connected
// state is an invalid-state error. The peer's posted work flushes too,
// once the disconnect reaches it.
func TestDisconnectFlushesPostedDescriptors(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			var serverSawFlush bool
			env := newPair(t, m, ViAttributes{},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					const n = 256
					buf := ctx.Malloc(n)
					h, err := nic.RegisterMem(ctx, buf)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 3; i++ {
						if err := vi.PostRecv(ctx, SimpleRecv(buf, h, n)); err != nil {
							t.Errorf("PostRecv %d: %v", i, err)
							return
						}
					}
					// Give the server time to post its receive before the
					// teardown races past it.
					ctx.Sleep(sim.Millisecond)
					if err := vi.Disconnect(ctx); err != nil {
						t.Errorf("Disconnect: %v", err)
						return
					}
					if vi.State() != ViDisconnected {
						t.Errorf("state after Disconnect = %v", vi.State())
					}
					for i := 0; i < 3; i++ {
						d, ok := vi.RecvDone(ctx)
						if !ok {
							t.Fatalf("descriptor %d not completed by Disconnect", i)
						}
						if d.Status != StatusFlushed {
							t.Errorf("descriptor %d status = %v, want %v", i, d.Status, StatusFlushed)
						}
					}
					if _, ok := vi.RecvDone(ctx); ok {
						t.Error("spurious extra completion")
					}
					if err := vi.PostSend(ctx, SimpleSend(buf, h, n)); !errors.Is(err, ErrInvalidState) {
						t.Errorf("PostSend after Disconnect = %v, want ErrInvalidState", err)
					}
					if err := vi.PostRecv(ctx, SimpleRecv(buf, h, n)); !errors.Is(err, ErrInvalidState) {
						t.Errorf("PostRecv after Disconnect = %v, want ErrInvalidState", err)
					}
					if nic.FlushedDescs != 3 {
						t.Errorf("FlushedDescs = %d, want 3", nic.FlushedDescs)
					}
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					const n = 256
					buf := ctx.Malloc(n)
					h, err := nic.RegisterMem(ctx, buf)
					if err != nil {
						t.Error(err)
						return
					}
					if err := vi.PostRecv(ctx, SimpleRecv(buf, h, n)); err != nil {
						t.Error(err)
						return
					}
					d, err := vi.RecvWait(ctx, tmo)
					if err != nil {
						t.Errorf("peer RecvWait: %v", err)
						return
					}
					if d.Status != StatusFlushed {
						t.Errorf("peer descriptor status = %v, want %v", d.Status, StatusFlushed)
					}
					serverSawFlush = true
				})
			env.run()
			if !serverSawFlush {
				t.Error("server never observed the flush")
			}
		})
	}
}

// --- Retransmission exhaustion: the acceptance scenario ---

// exhaustionPlan severs the fabric permanently shortly after connection
// setup: the handshake goes through, every data packet vanishes.
func exhaustionPlan() *fault.Plan {
	return &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.KindLinkDown, Start: "5ms"},
	}}
}

func TestRetransmissionExhaustionBreaksReliableVi(t *testing.T) {
	m := provider.CLAN()
	sys := NewSystem(m, 2, 1)
	sys.InstallFaults(exhaustionPlan())

	const msgs = 3
	errorEvents := 0
	var errorCode Status
	var statuses []Status

	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		nic.SetErrorCallback(func(_ *Ctx, ev ErrorEvent) {
			errorEvents++
			errorCode = ev.Code
		})
		vi, err := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
			t.Errorf("ConnectRequest: %v", err)
			return
		}
		// Wait out the healthy window so every data packet hits the outage.
		if d := sim.Time(0).Add(6 * sim.Millisecond).Sub(ctx.Now()); d > 0 {
			ctx.Sleep(d)
		}
		buf := ctx.Malloc(512)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := vi.PostSend(ctx, SimpleSend(buf, h, 512)); err != nil {
				t.Errorf("PostSend %d: %v", i, err)
				return
			}
		}
		for i := 0; i < msgs; i++ {
			d, err := vi.SendWait(ctx, sim.Second)
			if err != nil {
				t.Errorf("SendWait %d: %v", i, err)
				return
			}
			statuses = append(statuses, d.Status)
		}
		if vi.State() != ViError {
			t.Errorf("VI state = %v, want %v", vi.State(), ViError)
		}
		if err := vi.PostSend(ctx, SimpleSend(buf, h, 512)); !errors.Is(err, ErrInvalidState) {
			t.Errorf("PostSend on errored VI = %v, want ErrInvalidState", err)
		}
		if nic.ConnErrors != 1 {
			t.Errorf("ConnErrors = %d, want 1", nic.ConnErrors)
		}
		if nic.TransportErrs == 0 {
			t.Error("no completion carried StatusTransportError")
		}
		if nic.TransportErrs+nic.FlushedDescs != msgs {
			t.Errorf("transport=%d flushed=%d, want sum %d", nic.TransportErrs, nic.FlushedDescs, msgs)
		}
	})

	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, err := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		buf := ctx.Malloc(512)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := vi.PostRecv(ctx, SimpleRecv(buf, h, 512)); err != nil {
				t.Error(err)
				return
			}
		}
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		if err := req.Accept(ctx, vi); err != nil {
			t.Error(err)
			return
		}
		// The partition swallows all data, and the client's disconnect
		// notification dies on the same dead link: the peer cannot be told.
		// One bounded wait outlives the sender's entire backoff ladder.
		if _, err := vi.RecvWait(ctx, sim.Second); !errors.Is(err, ErrTimeout) {
			t.Errorf("server RecvWait = %v, want timeout", err)
		}
	})

	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if errorEvents != 1 {
		t.Fatalf("error callback fired %d times, want exactly 1", errorEvents)
	}
	if errorCode != StatusTransportError {
		t.Fatalf("error callback code = %v, want %v", errorCode, StatusTransportError)
	}
	if len(statuses) != msgs {
		t.Fatalf("collected %d send statuses, want %d", len(statuses), msgs)
	}
	for i, st := range statuses {
		if st != StatusTransportError && st != StatusFlushed {
			t.Errorf("send %d status = %v, want TransportError or Flushed", i, st)
		}
	}
}

// The same partition under unreliable delivery degrades gracefully: sends
// complete successfully into the void and the VI stays connected.
func TestExhaustionPlanHarmlessWhenUnreliable(t *testing.T) {
	m := provider.CLAN()
	sys := NewSystem(m, 2, 1)
	sys.InstallFaults(exhaustionPlan())

	const msgs = 3
	callbacks := 0

	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		nic.SetErrorCallback(func(*Ctx, ErrorEvent) { callbacks++ })
		vi, err := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
			t.Errorf("ConnectRequest: %v", err)
			return
		}
		if d := sim.Time(0).Add(6 * sim.Millisecond).Sub(ctx.Now()); d > 0 {
			ctx.Sleep(d)
		}
		buf := ctx.Malloc(512)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			if err := vi.PostSend(ctx, SimpleSend(buf, h, 512)); err != nil {
				t.Errorf("PostSend %d: %v", i, err)
				return
			}
			d, err := vi.SendWait(ctx, sim.Second)
			if err != nil || d.Status != StatusSuccess {
				t.Errorf("send %d: %v %v", i, err, d)
				return
			}
		}
		if vi.State() != ViConnected {
			t.Errorf("VI state = %v, want %v", vi.State(), ViConnected)
		}
	})

	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, err := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		if err := req.Accept(ctx, vi); err != nil {
			t.Error(err)
		}
		// Nothing will arrive and nothing is posted; just exit.
	})

	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if callbacks != 0 {
		t.Fatalf("error callback fired %d times on an unreliable VI", callbacks)
	}
}

// --- Chaos soak ---

// chaosPlans reports how many seeded random plans the soak runs; `make
// chaos` raises it through the environment for longer soaks.
func chaosPlans() int {
	if v := os.Getenv("VIBE_CHAOS_PLANS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 50
}

// runChaosCase drives one seeded chaos iteration: a 2-host workload over
// the given model under the given plan that streams sends, then issues an
// RDMA write with immediate data and, on the reliable levels (the only
// ones that accept it), an RDMA read. It checks the invariants that must
// survive arbitrary faults — the simulation always terminates (every wait
// is bounded, so a hang is a deadlock and Run reports it), reliable levels
// deliver in order without gaps or duplicates, the write's immediate
// included, any successfully completed receive carries exactly the bytes
// of one sent message, a delivered immediate finds the whole write in
// place and a successful read returns the whole remote buffer, fabric
// packet accounting conserves (delivered = sent - dropped + duplicated),
// and no switch buffer credit leaks.
func runChaosCase(t *testing.T, m *provider.Model, plan *fault.Plan, seed int, rel ReliabilityLevel) *System {
	const (
		msgs = 16
		size = 1200
		// The RDMA transfers span three fragments at a 4 KB MTU.
		rdmaSize = 9000
		imm      = 0xC0FFEE
	)
	sys := NewSystem(m, 2, int64(seed)+1)
	sys.InstallFaults(plan)
	sys.EnableSpans(1)
	base := byte(seed * 7)
	writeSeed, readSeed := base+msgs, base+msgs+1
	attrs := ViAttributes{Reliability: rel, EnableRdmaWrite: true, EnableRdmaRead: rel.Reliable()}
	// The server's write target and read source, published before it
	// accepts the connection.
	var writeTo, readFrom AddressSegment

	sys.Go(0, "chaos-client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		nic.SetErrorCallback(func(*Ctx, ErrorEvent) {})
		vi, err := nic.CreateVi(ctx, attrs, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Faults may eat the handshake; that is a valid outcome,
		// not a failure.
		if err := vi.ConnectRequest(ctx, 1, "chaos", 100*sim.Millisecond); err != nil {
			return
		}
		buf := ctx.Malloc(size)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			// The buffer is reused, so each message waits for its
			// completion before the next refill (retransmissions
			// resend the NIC's own payload snapshot, so completed
			// buffers are free to reuse).
			buf.FillPattern(base + byte(i))
			if err := vi.PostSend(ctx, SimpleSend(buf, h, size)); err != nil {
				return // connection broke: acceptable
			}
			d, err := vi.SendWait(ctx, sim.Second)
			if err != nil || d.Status != StatusSuccess {
				return // broken or stuck: acceptable, but stops cleanly
			}
		}

		wsrc, rdst := ctx.Malloc(rdmaSize), ctx.Malloc(rdmaSize)
		wh, err1 := nic.RegisterMem(ctx, wsrc)
		rh, err2 := nic.RegisterMem(ctx, rdst)
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		wsrc.FillPattern(writeSeed)
		w := &Descriptor{
			Op:            OpRdmaWrite,
			Segs:          []DataSegment{{Addr: wsrc.Addr(), Handle: wh, Length: rdmaSize}},
			Remote:        &writeTo,
			HasImmediate:  true,
			ImmediateData: imm,
		}
		if err := vi.PostSend(ctx, w); err != nil {
			return
		}
		if d, err := vi.SendWait(ctx, sim.Second); err != nil || d.Status != StatusSuccess || !rel.Reliable() {
			return
		}
		r := &Descriptor{
			Op:     OpRdmaRead,
			Segs:   []DataSegment{{Addr: rdst.Addr(), Handle: rh, Length: rdmaSize}},
			Remote: &readFrom,
		}
		if err := vi.PostSend(ctx, r); err != nil {
			t.Errorf("post RDMA read: %v", err)
			return
		}
		d, err := vi.SendWait(ctx, sim.Second)
		if err != nil || d.Status != StatusSuccess {
			return
		}
		if d.Length != rdmaSize {
			t.Errorf("RDMA read: length %d, want %d", d.Length, rdmaSize)
		}
		if err := rdst.CheckPattern(readSeed, rdmaSize); err != nil {
			t.Errorf("RDMA read corrupted: %v", err)
		}
	})

	sys.Go(1, "chaos-server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		nic.SetErrorCallback(func(*Ctx, ErrorEvent) {})
		vi, err := nic.CreateVi(ctx, attrs, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		wdst, rsrc := ctx.Malloc(rdmaSize), ctx.Malloc(rdmaSize)
		wh, err1 := nic.RegisterMem(ctx, wdst)
		rh, err2 := nic.RegisterMem(ctx, rsrc)
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		rsrc.FillPattern(readSeed)
		writeTo = AddressSegment{Addr: wdst.Addr(), Handle: wh}
		readFrom = AddressSegment{Addr: rsrc.Addr(), Handle: rh}
		// One receive descriptor per send, plus one for the immediate.
		bufs := make(map[*Descriptor]*vmem.Buffer, msgs+1)
		for i := 0; i < msgs+1; i++ {
			b := ctx.Malloc(size)
			h, err := nic.RegisterMem(ctx, b)
			if err != nil {
				t.Error(err)
				return
			}
			d := SimpleRecv(b, h, size)
			bufs[d] = b
			if err := vi.PostRecv(ctx, d); err != nil {
				t.Error(err)
				return
			}
		}
		req, err := nic.ConnectWait(ctx, "chaos", 100*sim.Millisecond)
		if err != nil {
			return // handshake eaten by the plan
		}
		if err := req.Accept(ctx, vi); err != nil {
			return
		}
		delivered, imms := 0, 0
		for i := 0; i < msgs+1; i++ {
			d, err := vi.RecvWait(ctx, 200*sim.Millisecond)
			if err != nil {
				break // lost tail (timeout) or empty flushed queue
			}
			if d.Status != StatusSuccess {
				continue // flushed descriptors carry no data
			}
			if d.GotImmediate {
				imms++
				if d.Immediate != imm || d.Length != rdmaSize {
					t.Errorf("delivery %d: immediate %#x length %d, want %#x length %d", i, d.Immediate, d.Length, imm, rdmaSize)
				}
				if err := wdst.CheckPattern(writeSeed, rdmaSize); err != nil {
					t.Errorf("RDMA write corrupted: %v", err)
				}
				if rel.Reliable() && (delivered != msgs || imms != 1) {
					t.Errorf("reliable immediate %d arrived after %d of %d messages", imms, delivered, msgs)
				}
				continue
			}
			if d.Length != size {
				t.Errorf("delivery %d: length %d, want %d", i, d.Length, size)
				continue
			}
			b := bufs[d]
			if b == nil {
				t.Errorf("delivery %d: unknown descriptor", i)
				continue
			}
			// Recover which message this is from its first pattern
			// byte, then verify the whole payload.
			idx := int(b.Bytes()[0] - base)
			if idx < 0 || idx >= msgs {
				t.Errorf("delivery %d: unknown pattern seed %#x", i, b.Bytes()[0])
				continue
			}
			if err := b.CheckPattern(base+byte(idx), size); err != nil {
				t.Errorf("delivery %d corrupted: %v", i, err)
			}
			if rel.Reliable() && idx != delivered {
				t.Errorf("reliable delivery %d out of order: got message %d, want %d", i, idx, delivered)
			}
			delivered++
		}
	})

	if err := sys.Run(); err != nil {
		t.Fatalf("plan %d (%s) did not terminate cleanly: %v", seed, rel, err)
	}
	// Span accounting must survive whatever the plan did: no
	// double-closes ever, and no more closes than opens. (Workloads
	// here bail out without disconnecting when faults break the
	// connection, so still-queued descriptors legitimately hold
	// open spans — see TestSpanIntegrityUnderFaults for the
	// balanced-teardown variant.)
	opened, closed, doubles := sys.spans.opened, sys.spans.closedN, sys.spans.doubles
	if doubles != 0 {
		t.Errorf("plan %d (%s): %d double-closed spans", seed, rel, doubles)
	}
	if closed > opened {
		t.Errorf("plan %d (%s): closed %d spans but opened only %d", seed, rel, closed, opened)
	}
	// Fabric packet conservation and the credit-leak audit: whatever the
	// plan dropped, duplicated or severed — on any route shape — every
	// packet is accounted for and every claimed switch buffer slot was
	// released.
	if got, want := sys.Net.Delivered, sys.Net.Sent-sys.Net.Dropped+sys.Net.Duplicated; got != want {
		t.Errorf("plan %d (%s): delivered %d, want sent-dropped+duplicated = %d", seed, rel, got, want)
	}
	if n := sys.Net.LeakedCredits(); n != 0 {
		t.Errorf("plan %d (%s): %d switch buffer credits leaked", seed, rel, n)
	}
	return sys
}

// TestChaosSoak throws seeded random fault plans at the crossbar
// streaming workload — see runChaosCase for the invariants.
func TestChaosSoak(t *testing.T) {
	levels := []ReliabilityLevel{Unreliable, ReliableDelivery, ReliableReception}
	for seed := 0; seed < chaosPlans(); seed++ {
		plan := fault.RandomPlan(int64(seed))
		rel := levels[seed%len(levels)]
		t.Run(strconv.Itoa(seed)+"-"+rel.String(), func(t *testing.T) {
			runChaosCase(t, provider.CLAN(), plan, seed, rel)
		})
	}
}

// TestChaosSoakRouted runs the same soak over the routed multi-switch
// topologies with finite buffers, drawing topology-aware plans that add
// switch-down and inter-switch-link-down outages to the legacy fault
// kinds. One host per switch makes every packet multi-hop, so drops,
// outages and reroutes all land mid-route — the paths the credit-leak
// audit exists for.
func TestChaosSoakRouted(t *testing.T) {
	topos := []string{"fattree", "dragonfly", "torus3d"}
	levels := []ReliabilityLevel{Unreliable, ReliableDelivery, ReliableReception}
	for seed := 0; seed < chaosPlans(); seed++ {
		topo := topos[seed%len(topos)]
		rel := levels[seed%len(levels)]
		m := provider.CLAN()
		m.Network.Topology = topo
		m.Network.TopologyDegree = 1
		m.Network.SwitchBufPkts = 2
		switches := fabric.BuildTopology(m.Network, 2).Switches()
		plan := fault.RandomTopoPlan(int64(seed), 2, switches)
		t.Run(strconv.Itoa(seed)+"-"+topo+"-"+rel.String(), func(t *testing.T) {
			runChaosCase(t, m, plan, seed, rel)
		})
	}
}

// TestRoutedFaultConservation pins the credit-leak audit per fault kind:
// for every kind the plan schema knows — packet, element and stall — a
// deterministic plan runs over each routed topology (one host per
// switch, 2-packet buffers) and the fabric must conserve packets
// (delivered = sent - dropped + duplicated, checked inside runChaosCase)
// with zero leaked switch buffer credits. Element-outage kinds must
// actually bite: the run has to record unroutable drops, proving the
// conservation claim covers the reroute/no-path machinery and not an
// inert plan.
func TestRoutedFaultConservation(t *testing.T) {
	n5 := uint64(5)
	f4, t8 := uint64(4), uint64(8)
	for _, topo := range []string{"fattree", "dragonfly", "torus3d"} {
		// Elements every 0<->1 route crosses (see elementOutagePlan).
		sw, link := 1, []int{0, 1}
		if topo == "fattree" {
			sw, link = 2, []int{0, 2}
		}
		cases := []struct {
			name           string
			spec           fault.Spec
			wantUnroutable bool
		}{
			{fault.KindDropNth, fault.Spec{Kind: fault.KindDropNth, Nth: &n5}, false},
			{fault.KindDropRange, fault.Spec{Kind: fault.KindDropRange, From: &f4, To: &t8}, false},
			{fault.KindDrop, fault.Spec{Kind: fault.KindDrop, Prob: 0.2, Count: 100}, false},
			{fault.KindCorrupt, fault.Spec{Kind: fault.KindCorrupt, Prob: 0.2, Count: 100}, false},
			{fault.KindDuplicate, fault.Spec{Kind: fault.KindDuplicate, Prob: 0.2, Count: 100}, false},
			{fault.KindDelay, fault.Spec{Kind: fault.KindDelay, Prob: 0.3, Delay: "40us", Count: 100}, false},
			{fault.KindJitter, fault.Spec{Kind: fault.KindJitter, Prob: 0.3, Delay: "80us", Count: 100}, false},
			{fault.KindLinkDown, fault.Spec{Kind: fault.KindLinkDown, Start: "2ms", End: "3ms"}, false},
			{fault.KindSwitchDown, fault.Spec{Kind: fault.KindSwitchDown, Switch: &sw, Start: "2ms", End: "3ms"}, true},
			{fault.KindSwitchLinkDown, fault.Spec{Kind: fault.KindSwitchLinkDown, Link: link, Start: "2ms", End: "3ms"}, true},
			{fault.KindDoorbellStall, fault.Spec{Kind: fault.KindDoorbellStall, Prob: 0.2, Delay: "30us", Count: 100}, false},
			{fault.KindDMAStall, fault.Spec{Kind: fault.KindDMAStall, Prob: 0.2, Delay: "20us", Count: 100}, false},
		}
		for ci, tc := range cases {
			tc := tc
			t.Run(topo+"/"+tc.name, func(t *testing.T) {
				m := provider.CLAN()
				m.Network.Topology = topo
				m.Network.TopologyDegree = 1
				m.Network.SwitchBufPkts = 2
				plan := &fault.Plan{Seed: int64(ci), Faults: []fault.Spec{tc.spec}}
				sys := runChaosCase(t, m, plan, ci, ReliableDelivery)
				if tc.wantUnroutable && sys.Net.Unroutable == 0 {
					t.Errorf("%s plan recorded no unroutable drops — the outage never bit", tc.name)
				}
			})
		}
	}
}
