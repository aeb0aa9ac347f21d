package via

import (
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// --- RDMA ---

func TestRdmaWrite(t *testing.T) {
	for _, m := range []*provider.Model{provider.MVIA(), provider.BVIA(), provider.CLAN()} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			const n = 12000
			attrs := ViAttributes{EnableRdmaWrite: true}
			// The target must export its buffer's (addr, handle) to the
			// initiator; real applications do this over a send/recv
			// exchange. The test shares it through captured variables,
			// synchronized by virtual time.
			var (
				remoteH   MemHandle
				tgtReady  bool
				targetBuf *bufExport
			)
			env := newPair(t, m, attrs,
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					src := ctx.Malloc(n)
					h, _ := nic.RegisterMem(ctx, src)
					src.FillPattern(5)
					for !tgtReady {
						ctx.Sleep(10 * sim.Microsecond)
					}
					d := &Descriptor{
						Op:     OpRdmaWrite,
						Segs:   []DataSegment{{Addr: src.Addr(), Handle: h, Length: n}},
						Remote: &AddressSegment{Addr: targetBuf.addr, Handle: remoteH},
					}
					if err := vi.PostSend(ctx, d); err != nil {
						t.Errorf("PostSend rdma: %v", err)
						return
					}
					got, err := vi.SendWaitPoll(ctx)
					if err != nil || got.Status != StatusSuccess {
						t.Errorf("rdma completion: %v %v", err, got)
					}
					// Give the write time to land, then tell the target.
					ctx.Sleep(5 * sim.Millisecond)
					targetBuf.done = true
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					dst := ctx.Malloc(n)
					h, _ := nic.RegisterMem(ctx, dst)
					remoteH = h
					targetBuf = &bufExport{addr: dst.Addr()}
					tgtReady = true
					for !targetBuf.done {
						ctx.Sleep(10 * sim.Microsecond)
					}
					if err := dst.CheckPattern(5, n); err != nil {
						t.Errorf("rdma data: %v", err)
					}
				})
			env.run()
		})
	}
}

func TestRdmaWriteWithImmediateConsumesDescriptor(t *testing.T) {
	const n = 3000
	attrs := ViAttributes{EnableRdmaWrite: true}
	var (
		remoteH MemHandle
		tgt     *bufExport
		ready   bool
	)
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			src := ctx.Malloc(n)
			h, _ := nic.RegisterMem(ctx, src)
			src.FillPattern(8)
			for !ready {
				ctx.Sleep(10 * sim.Microsecond)
			}
			d := &Descriptor{
				Op:            OpRdmaWrite,
				Segs:          []DataSegment{{Addr: src.Addr(), Handle: h, Length: n}},
				Remote:        &AddressSegment{Addr: tgt.addr, Handle: remoteH},
				ImmediateData: 42,
				HasImmediate:  true,
			}
			if err := vi.PostSend(ctx, d); err != nil {
				t.Error(err)
				return
			}
			vi.SendWaitPoll(ctx)
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			dst := ctx.Malloc(n)
			h, _ := nic.RegisterMem(ctx, dst)
			remoteH = h
			tgt = &bufExport{addr: dst.Addr()}
			// The immediate notification consumes this descriptor.
			note := ctx.Malloc(16)
			hn, _ := nic.RegisterMem(ctx, note)
			vi.PostRecv(ctx, SimpleRecv(note, hn, 16))
			ready = true
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if !d.GotImmediate || d.Immediate != 42 {
				t.Errorf("immediate: %v %d", d.GotImmediate, d.Immediate)
			}
			if err := dst.CheckPattern(8, n); err != nil {
				t.Errorf("rdma+imm data: %v", err)
			}
		})
	env.run()
}

func TestRdmaRead(t *testing.T) {
	rdmaReadPair(t, 9000).run()
}

// TestRdmaReadFragmentCounts checks that every fragment one NIC sends is
// counted as received by the other: the responder counts the read request
// it receives, just as the requester counts it as sent.
func TestRdmaReadFragmentCounts(t *testing.T) {
	env := rdmaReadPair(t, 9000)
	env.run()
	snap := metricsMap(env.sys)
	get := func(key string) float64 {
		v, ok := snap[key]
		if !ok {
			t.Fatalf("no metric %s", key)
		}
		return v
	}
	for _, p := range [][2]string{{"nic0", "nic1"}, {"nic1", "nic0"}} {
		sent, recv := get(p[0]+".frags.sent"), get(p[1]+".frags.recv")
		if sent == 0 || sent != recv {
			t.Errorf("%s.frags.sent = %v, %s.frags.recv = %v", p[0], sent, p[1], recv)
		}
	}
}

// rdmaReadPair builds a reliable clan pair in which the client reads n
// patterned bytes from the server's registered buffer and checks them.
func rdmaReadPair(t *testing.T, n int) *pairEnv {
	attrs := ViAttributes{EnableRdmaRead: true, Reliability: ReliableDelivery}
	var (
		remoteH MemHandle
		tgt     *bufExport
		ready   bool
	)
	return newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			dst := ctx.Malloc(n)
			h, _ := nic.RegisterMem(ctx, dst)
			for !ready {
				ctx.Sleep(10 * sim.Microsecond)
			}
			d := &Descriptor{
				Op:     OpRdmaRead,
				Segs:   []DataSegment{{Addr: dst.Addr(), Handle: h, Length: n}},
				Remote: &AddressSegment{Addr: tgt.addr, Handle: remoteH},
			}
			if err := vi.PostSend(ctx, d); err != nil {
				t.Errorf("post read: %v", err)
				return
			}
			got, err := vi.SendWaitPoll(ctx)
			if err != nil || got.Status != StatusSuccess || got.Length != n {
				t.Errorf("read completion: %v %v", err, got)
				return
			}
			if err := dst.CheckPattern(3, n); err != nil {
				t.Errorf("read data: %v", err)
			}
			tgt.done = true
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			src := ctx.Malloc(n)
			h, _ := nic.RegisterMem(ctx, src)
			src.FillPattern(3)
			remoteH = h
			tgt = &bufExport{addr: src.Addr()}
			ready = true
			for !tgt.done {
				ctx.Sleep(10 * sim.Microsecond)
			}
		})
}

func TestRdmaReadRequiresReliable(t *testing.T) {
	attrs := ViAttributes{EnableRdmaRead: true} // unreliable connection
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, buf)
			d := &Descriptor{
				Op:     OpRdmaRead,
				Segs:   []DataSegment{{Addr: buf.Addr(), Handle: h, Length: 64}},
				Remote: &AddressSegment{Addr: buf.Addr(), Handle: h},
			}
			if err := vi.PostSend(ctx, d); err != ErrNotSupported {
				t.Errorf("read on unreliable: %v", err)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.run()
}

func TestRdmaProtectionErrorBreaksReliableConnection(t *testing.T) {
	attrs := ViAttributes{EnableRdmaWrite: true, Reliability: ReliableDelivery}
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			src := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, src)
			d := &Descriptor{
				Op:     OpRdmaWrite,
				Segs:   []DataSegment{{Addr: src.Addr(), Handle: h, Length: 64}},
				Remote: &AddressSegment{Addr: 0xF0000000, Handle: 999}, // bogus
			}
			if err := vi.PostSend(ctx, d); err != nil {
				t.Error(err)
				return
			}
			got, err := vi.SendWaitPoll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Status != StatusRdmaProtError {
				t.Errorf("status = %v, want RDMA_PROTECTION_ERROR", got.Status)
			}
			if vi.State() != ViError {
				t.Errorf("state = %v, want error", vi.State())
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.run()
}

// bufExport shares a buffer address between simulated processes in tests.
type bufExport struct {
	addr vmem.Addr
	done bool
}

// --- notify (asynchronous handler) ---

func TestRecvNotifyHandler(t *testing.T) {
	const msgs = 3
	handled := 0
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(128)
			h, _ := nic.RegisterMem(ctx, buf)
			for i := 0; i < msgs; i++ {
				vi.PostSend(ctx, SimpleSend(buf, h, 128))
				if _, err := vi.SendWaitPoll(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(128)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.SetRecvNotify(func(hctx *Ctx, d *Descriptor) {
				if d.Status != StatusSuccess || d.Length != 128 {
					t.Errorf("notify desc: %v", d)
				}
				handled++
			})
			for i := 0; i < msgs; i++ {
				vi.PostRecv(ctx, SimpleRecv(buf, h, 128))
			}
			// Wait for all handlers to run.
			for handled < msgs {
				ctx.Sleep(100 * sim.Microsecond)
			}
		})
	env.run()
	if handled != msgs {
		t.Fatalf("handled = %d", handled)
	}
}

// --- determinism across the full stack ---

func TestSystemDeterminism(t *testing.T) {
	run := func() string {
		var log string
		env := newPairForDeterminism(t, &log)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty log")
	}
}

func newPairForDeterminism(t *testing.T, log *string) *System {
	sys := NewSystem(provider.BVIA(), 2, 42)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
			t.Error(err)
			return
		}
		buf := ctx.Malloc(8192)
		h, _ := nic.RegisterMem(ctx, buf)
		for i := 0; i < 5; i++ {
			vi.PostSend(ctx, SimpleSend(buf, h, 1000*(i+1)))
			d, err := vi.SendWaitPoll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			*log += fmt.Sprintf("send%d@%v;", i, ctx.Now())
			_ = d
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		buf := ctx.Malloc(8192)
		h, _ := nic.RegisterMem(ctx, buf)
		for i := 0; i < 5; i++ {
			vi.PostRecv(ctx, SimpleRecv(buf, h, 8192))
		}
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		req.Accept(ctx, vi)
		for i := 0; i < 5; i++ {
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			*log += fmt.Sprintf("recv%d=%d@%v;", i, d.Length, ctx.Now())
		}
	})
	return sys
}

// --- NIC attributes ---

func TestNicAttributes(t *testing.T) {
	sys := NewSystem(provider.BVIA(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		a := ctx.OpenNic().Attributes()
		if a.Name != "bvia" || a.MaxSegments != 4 || a.RdmaReadSupported {
			t.Errorf("attrs = %+v", a)
		}
		if len(a.ReliabilitySupported) != 2 {
			t.Errorf("reliability levels = %v", a.ReliabilitySupported)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}
