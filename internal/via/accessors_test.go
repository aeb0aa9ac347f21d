package via

import (
	"strings"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
)

// Accessor, stringer, and small-surface coverage: these are part of the
// public API contract, so they get pinned even though they carry no
// logic.

func TestStringers(t *testing.T) {
	for s, want := range map[interface{ String() string }]string{
		StatusSuccess:       "SUCCESS",
		StatusFlushed:       "DESCRIPTOR_FLUSHED",
		Status(99):          "UNKNOWN_STATUS",
		Unreliable:          "unreliable",
		ReliableReception:   "reliable-reception",
		ReliabilityLevel(9): "reliability(9)",
		OpSend:              "send",
		OpRdmaWrite:         "rdma-write",
		OpRdmaRead:          "rdma-read",
		Op(9):               "op(9)",
		ViIdle:              "idle",
		ViConnected:         "connected",
		ViDisconnected:      "disconnected",
		ViError:             "error",
		ViDestroyed:         "destroyed",
		ViState(9):          "state(9)",
		pktData:             "data",
		pktAck:              "ack",
		pktErrAck:           "err-ack",
		pktRdmaWrite:        "rdma-write",
		pktRdmaReadReq:      "rdma-read-req",
		pktRdmaReadResp:     "rdma-read-resp",
		pktConnReq:          "conn-req",
		pktConnAccept:       "conn-accept",
		pktConnReject:       "conn-reject",
		pktDisconnect:       "disconnect",
		pktKind(99):         "pkt(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestDescriptorHelpers(t *testing.T) {
	d := &Descriptor{Op: OpSend, Segs: []DataSegment{{Length: 10}, {Length: 22}}}
	if d.TotalLength() != 32 {
		t.Errorf("TotalLength = %d", d.TotalLength())
	}
	if d.Done() {
		t.Error("fresh descriptor done")
	}
	if !strings.Contains(d.String(), "32B") {
		t.Errorf("String = %q", d.String())
	}
}

func TestSystemAndHostAccessors(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 3, 1)
	if sys.Hosts() != 3 {
		t.Errorf("Hosts = %d", sys.Hosts())
	}
	h := sys.Host(2)
	if h.ID() != 2 || h.System() != sys {
		t.Error("host accessors")
	}
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		if nic.Host() != sys.Host(0) {
			t.Error("Nic.Host")
		}
		if nic.tlb != nil {
			t.Error("clan has no TLB")
		}
		vi, _ := nic.CreateVi(ctx, ViAttributes{EnableRdmaWrite: true}, nil, nil)
		if vi.Nic() != nic || !vi.Attributes().EnableRdmaWrite {
			t.Error("vi accessors")
		}
		if vi.SendQueueDepth() != 0 || vi.RecvQueueDepth() != 0 {
			t.Error("fresh queue depths")
		}
		// Compute burns CPU.
		before := ctx.Host.CPU.Busy()
		ctx.Compute(100 * sim.Microsecond)
		if ctx.Host.CPU.Busy()-before != 100*sim.Microsecond {
			t.Error("Compute accounting")
		}
	})
	sys.MustRun() // exercises MustRun
	bv := NewSystem(provider.BVIA(), 1, 1)
	bv.Go(0, "p", func(ctx *Ctx) {
		if ctx.OpenNic().tlb == nil {
			t.Error("bvia must have a TLB")
		}
	})
	bv.MustRun()
}

func TestConnRequestAccessors(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		vi.ConnectRequest(ctx, 1, "acc", tmo)
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		req, err := nic.ConnectWait(ctx, "acc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		if req.Discriminator() != "acc" || req.RemoteNode() != 0 || req.Reliability() != ReliableDelivery {
			t.Errorf("request accessors: %q %v %v", req.Discriminator(), req.RemoteNode(), req.Reliability())
		}
		vi, _ := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		req.Accept(ctx, vi)
	})
	sys.MustRun()
}

func TestCQLenAndWaitBlockForever(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "cqb", tmo); err != nil {
			t.Error(err)
			return
		}
		buf := ctx.Malloc(64)
		h, _ := nic.RegisterMem(ctx, buf)
		ctx.Sleep(2 * sim.Millisecond) // let the server block first
		vi.PostSend(ctx, SimpleSend(buf, h, 64))
		vi.SendWaitPoll(ctx)
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		cq, _ := nic.CreateCQ(ctx, 4)
		if cq.Len() != 0 {
			t.Error("fresh CQ non-empty")
		}
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, cq)
		buf := ctx.Malloc(64)
		h, _ := nic.RegisterMem(ctx, buf)
		vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
		req, _ := nic.ConnectWait(ctx, "cqb", tmo)
		req.Accept(ctx, vi)
		meter := ctx.Host.CPU.StartMeter()
		c, err := cq.WaitBlockForever(ctx)
		if err != nil || !c.IsRecv {
			t.Errorf("WaitBlockForever: %v %+v", err, c)
			return
		}
		if meter.Utilization() > 0.05 {
			t.Errorf("WaitBlockForever burned CPU: %.2f", meter.Utilization())
		}
	})
	sys.MustRun()
}

func TestPolicyAndSiteAccessorsViaNicAttributes(t *testing.T) {
	sys := NewSystem(provider.MVIA(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		a := ctx.OpenNic().Attributes()
		if !a.RdmaReadSupported || a.WireMTU != 1500 {
			t.Errorf("mvia attributes: %+v", a)
		}
	})
	sys.MustRun()
}
