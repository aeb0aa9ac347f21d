package via

import (
	"errors"
	"runtime"
	"testing"

	"vibe/internal/fabric"
	"vibe/internal/provider"
	"vibe/internal/sim"
)

const tmo = 10 * sim.Second

// pair wires up a 2-host system with one connected VI pair and hands both
// endpoints to the test via callbacks running as simulated processes.
// Every helper error is fatal through t.
type pairEnv struct {
	sys *System
	t   *testing.T
}

func newPair(t *testing.T, model *provider.Model, attrs ViAttributes,
	client func(ctx *Ctx, vi *Vi, nic *Nic),
	server func(ctx *Ctx, vi *Vi, nic *Nic)) *pairEnv {

	t.Helper()
	sys := NewSystem(model, 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, err := nic.CreateVi(ctx, attrs, nil, nil)
		if err != nil {
			t.Errorf("client CreateVi: %v", err)
			return
		}
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
			t.Errorf("ConnectRequest: %v", err)
			return
		}
		client(ctx, vi, nic)
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, err := nic.CreateVi(ctx, attrs, nil, nil)
		if err != nil {
			t.Errorf("server CreateVi: %v", err)
			return
		}
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Errorf("ConnectWait: %v", err)
			return
		}
		if err := req.Accept(ctx, vi); err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		server(ctx, vi, nic)
	})
	return &pairEnv{sys: sys, t: t}
}

func (e *pairEnv) run() {
	e.t.Helper()
	if err := e.sys.Run(); err != nil {
		e.t.Fatal(err)
	}
}

// dropInjector is a test fabric.PacketInjector that drops every packet it
// reports true for.
type dropInjector func(pkt *wirePacket) bool

func (f dropInjector) InjectPacket(_ uint64, _ sim.Time, d *fabric.Delivery) fabric.PacketFault {
	return fabric.PacketFault{Drop: f(d.Payload.(*wirePacket))}
}

// --- basic transfer ---

func TestSendRecvDataIntegrity(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			const n = 10000
			env := newPair(t, m, ViAttributes{},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					buf := ctx.Malloc(n)
					h, err := nic.RegisterMem(ctx, buf)
					if err != nil {
						t.Error(err)
						return
					}
					buf.FillPattern(7)
					if err := vi.PostSend(ctx, SimpleSend(buf, h, n)); err != nil {
						t.Errorf("PostSend: %v", err)
						return
					}
					d, err := vi.SendWaitPoll(ctx)
					if err != nil || d.Status != StatusSuccess {
						t.Errorf("send completion: %v %v", err, d)
					}
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					buf := ctx.Malloc(n)
					h, err := nic.RegisterMem(ctx, buf)
					if err != nil {
						t.Error(err)
						return
					}
					if err := vi.PostRecv(ctx, SimpleRecv(buf, h, n)); err != nil {
						t.Errorf("PostRecv: %v", err)
						return
					}
					d, err := vi.RecvWaitPoll(ctx)
					if err != nil {
						t.Errorf("RecvWaitPoll: %v", err)
						return
					}
					if d.Status != StatusSuccess || d.Length != n {
						t.Errorf("recv completion: %v len=%d", d.Status, d.Length)
					}
					if err := buf.CheckPattern(7, n); err != nil {
						t.Errorf("data corrupted: %v", err)
					}
				})
			env.run()
		})
	}
}

func TestZeroByteSend(t *testing.T) {
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(16)
			h, _ := nic.RegisterMem(ctx, buf)
			if err := vi.PostSend(ctx, SimpleSend(buf, h, 0)); err != nil {
				t.Errorf("PostSend(0): %v", err)
				return
			}
			if _, err := vi.SendWaitPoll(ctx); err != nil {
				t.Errorf("SendWaitPoll: %v", err)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(16)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostRecv(ctx, SimpleRecv(buf, h, 16))
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil || d.Length != 0 || d.Status != StatusSuccess {
				t.Errorf("zero-byte recv: %v %v", err, d)
			}
		})
	env.run()
}

func TestImmediateData(t *testing.T) {
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, buf)
			d := SimpleSend(buf, h, 64)
			d.ImmediateData, d.HasImmediate = 0xDEADBEEF, true
			if err := vi.PostSend(ctx, d); err != nil {
				t.Error(err)
				return
			}
			vi.SendWaitPoll(ctx)
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if !d.GotImmediate || d.Immediate != 0xDEADBEEF {
				t.Errorf("immediate = %#x got=%v", d.Immediate, d.GotImmediate)
			}
		})
	env.run()
}

func TestMultiSegmentGatherScatter(t *testing.T) {
	// Gather from 3 send segments, scatter into 2 receive segments.
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			var segs []DataSegment
			for i, n := range []int{5000, 3000, 2000} {
				buf := ctx.Malloc(n)
				h, _ := nic.RegisterMem(ctx, buf)
				buf.FillPattern(byte(i))
				segs = append(segs, DataSegment{Addr: buf.Addr(), Handle: h, Length: n})
			}
			if err := vi.PostSend(ctx, &Descriptor{Op: OpSend, Segs: segs}); err != nil {
				t.Errorf("PostSend: %v", err)
				return
			}
			if d, err := vi.SendWaitPoll(ctx); err != nil || d.Status != StatusSuccess {
				t.Errorf("send: %v %v", err, d)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			a := ctx.Malloc(6000)
			b := ctx.Malloc(6000)
			ha, _ := nic.RegisterMem(ctx, a)
			hb, _ := nic.RegisterMem(ctx, b)
			d := &Descriptor{Segs: []DataSegment{
				{Addr: a.Addr(), Handle: ha, Length: 6000},
				{Addr: b.Addr(), Handle: hb, Length: 6000},
			}}
			vi.PostRecv(ctx, d)
			got, err := vi.RecvWaitPoll(ctx)
			if err != nil || got.Length != 10000 {
				t.Errorf("recv: %v len=%d", err, got.Length)
				return
			}
			// First 5000 bytes: pattern 0; next 3000: pattern 1 (starting
			// in a, spilling into b); last 2000: pattern 2.
			for i := 0; i < 5000; i++ {
				if a.Bytes()[i] != 0+byte(i*31) {
					t.Fatalf("seg0 byte %d wrong", i)
				}
			}
			for i := 0; i < 1000; i++ {
				if a.Bytes()[5000+i] != 1+byte(i*31) {
					t.Fatalf("seg1 byte %d wrong (in a)", i)
				}
			}
			for i := 0; i < 2000; i++ {
				if b.Bytes()[i] != 1+byte((1000+i)*31) {
					t.Fatalf("seg1 byte %d wrong (in b)", i)
				}
			}
			for i := 0; i < 2000; i++ {
				if b.Bytes()[2000+i] != 2+byte(i*31) {
					t.Fatalf("seg2 byte %d wrong", i)
				}
			}
		})
	env.run()
}

// --- validation and protection ---

func TestPostValidation(t *testing.T) {
	m := provider.BVIA() // 4 segment max, no RDMA read
	env := newPair(t, m, ViAttributes{EnableRdmaWrite: true},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(1000)
			h, _ := nic.RegisterMem(ctx, buf)

			// Unregistered handle.
			bad := SimpleSend(buf, h+99, 100)
			if err := vi.PostSend(ctx, bad); !errors.Is(err, ErrInvalidHandle) {
				t.Errorf("bad handle: %v", err)
			}
			// Segment past the region.
			over := SimpleSend(buf, h, 1001)
			if err := vi.PostSend(ctx, over); !errors.Is(err, ErrProtection) {
				t.Errorf("overrun: %v", err)
			}
			// Too many segments.
			seg := DataSegment{Addr: buf.Addr(), Handle: h, Length: 10}
			many := &Descriptor{Op: OpSend, Segs: []DataSegment{seg, seg, seg, seg, seg}}
			if err := vi.PostSend(ctx, many); !errors.Is(err, ErrTooManySegments) {
				t.Errorf("segments: %v", err)
			}
			// Over max transfer size.
			big := ctx.Malloc(m.MaxTransferSize + 1)
			hb, _ := nic.RegisterMem(ctx, big)
			if err := vi.PostSend(ctx, SimpleSend(big, hb, m.MaxTransferSize+1)); !errors.Is(err, ErrLength) {
				t.Errorf("max transfer: %v", err)
			}
			// RDMA read unsupported by BVIA.
			rd := &Descriptor{Op: OpRdmaRead, Segs: []DataSegment{seg},
				Remote: &AddressSegment{Addr: buf.Addr(), Handle: h}}
			if err := vi.PostSend(ctx, rd); !errors.Is(err, ErrNotSupported) {
				t.Errorf("rdma read: %v", err)
			}
			// RDMA write without address segment.
			wr := &Descriptor{Op: OpRdmaWrite, Segs: []DataSegment{seg}}
			if err := vi.PostSend(ctx, wr); !errors.Is(err, ErrProtection) {
				t.Errorf("rdma write no remote: %v", err)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.run()
}

func TestRegisterRangeProtection(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		buf := ctx.Malloc(1000)
		if _, err := nic.RegisterRange(ctx, buf.AddrAt(500), 501); !errors.Is(err, ErrProtection) {
			t.Errorf("range past buffer end: %v", err)
		}
		if _, err := nic.RegisterRange(ctx, buf.AddrAt(1000), 1); !errors.Is(err, ErrProtection) {
			t.Errorf("range in guard page: %v", err)
		}
		if _, err := nic.RegisterRange(ctx, 8, 16); !errors.Is(err, ErrProtection) {
			t.Errorf("unmapped range: %v", err)
		}
		if _, err := nic.RegisterRange(ctx, buf.AddrAt(500), 500); err != nil {
			t.Errorf("valid range: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// Registration pins and translates pages but never reads them, so it must
// not make the simulated buffer allocate its storage.
func TestRegisterMemLeavesBufferUntouched(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf := ctx.Malloc(32 << 20)
		h, err := nic.RegisterMem(ctx, buf)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("allocating and registering 32 MiB took %d heap bytes, want < 1 MiB", d)
		}
		if err := nic.DeregisterMem(ctx, h); err != nil {
			t.Error(err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostSendRequiresConnection(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		buf := ctx.Malloc(64)
		h, _ := nic.RegisterMem(ctx, buf)
		if err := vi.PostSend(ctx, SimpleSend(buf, h, 64)); !errors.Is(err, ErrNotConnected) {
			t.Errorf("send while idle: %v", err)
		}
		// Receives may be pre-posted while idle.
		if err := vi.PostRecv(ctx, SimpleRecv(buf, h, 64)); err != nil {
			t.Errorf("pre-post recv: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeregisterInvalidatesAndRejects(t *testing.T) {
	sys := NewSystem(provider.BVIA(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		buf := ctx.Malloc(8192)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := nic.regions[h]; !ok {
			t.Error("not registered")
		}
		if err := nic.DeregisterMem(ctx, h); err != nil {
			t.Errorf("dereg: %v", err)
		}
		if _, ok := nic.regions[h]; ok {
			t.Error("still registered")
		}
		if err := nic.DeregisterMem(ctx, h); !errors.Is(err, ErrInvalidHandle) {
			t.Errorf("double dereg: %v", err)
		}
		if err := nic.checkSeg(DataSegment{Addr: buf.Addr(), Handle: h, Length: 10}); err == nil {
			t.Error("segment check passed after dereg")
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// --- lifecycle ---

func TestConnectionLifecycleAndFlush(t *testing.T) {
	var clientSawFlush, serverDisconnected bool
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, buf)
			// Post a receive that will never be matched, then disconnect:
			// it must flush.
			vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
			if err := vi.Disconnect(ctx); err != nil {
				t.Errorf("Disconnect: %v", err)
			}
			d, ok := vi.RecvDone(ctx)
			if !ok || d.Status != StatusFlushed {
				t.Errorf("flushed recv: ok=%v d=%v", ok, d)
			}
			clientSawFlush = true
			if vi.State() != ViDisconnected {
				t.Errorf("state = %v", vi.State())
			}
			if err := vi.Destroy(ctx); err != nil {
				t.Errorf("Destroy: %v", err)
			}
			if nic.OpenVIs() != 0 {
				t.Errorf("OpenVIs = %d", nic.OpenVIs())
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			// Wait for the disconnect to arrive.
			for vi.State() == ViConnected {
				ctx.Sleep(10 * sim.Microsecond)
			}
			if vi.State() != ViDisconnected {
				t.Errorf("server state = %v", vi.State())
			}
			serverDisconnected = true
		})
	env.run()
	if !clientSawFlush || !serverDisconnected {
		t.Error("callbacks incomplete")
	}
}

func TestDestroyConnectedViRejected(t *testing.T) {
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			if err := vi.Destroy(ctx); !errors.Is(err, ErrInvalidState) {
				t.Errorf("destroy connected: %v", err)
			}
			vi.Disconnect(ctx)
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.run()
}

func TestConnectReject(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		err := vi.ConnectRequest(ctx, 1, "svc", tmo)
		if !errors.Is(err, ErrRejected) {
			t.Errorf("want rejection, got %v", err)
		}
		if vi.State() != ViIdle {
			t.Errorf("state after reject = %v", vi.State())
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		if err := req.Reject(ctx); err != nil {
			t.Error(err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectTimeoutNoServer(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "nobody", 50*sim.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("want timeout, got %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectWaitTimeout(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 1, 1)
	sys.Go(0, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		if _, err := nic.ConnectWait(ctx, "svc", sim.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("want timeout, got %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReliabilityMismatchRejected(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableDelivery}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); !errors.Is(err, ErrRejected) {
			t.Errorf("mismatch: %v", err)
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{Reliability: Unreliable}, nil, nil)
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		if err := req.Accept(ctx, vi); !errors.Is(err, ErrNotSupported) {
			t.Errorf("accept mismatched: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsupportedReliabilityViCreation(t *testing.T) {
	sys := NewSystem(provider.BVIA(), 1, 1) // BVIA: no ReliableReception
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		if _, err := nic.CreateVi(ctx, ViAttributes{Reliability: ReliableReception}, nil, nil); !errors.Is(err, ErrNotSupported) {
			t.Errorf("want unsupported, got %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}
