package via

import (
	"errors"
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
)

// --- failure-injection soak: random loss on reliable connections ---

func TestReliableSoakUnderRandomLoss(t *testing.T) {
	// 5% random packet loss in both directions; a reliable connection
	// must deliver every message intact and in order.
	const msgs = 40
	sizes := []int{4, 1500, 4096, 12000, 20000}
	m := provider.CLAN()
	m.Network.DropRate = 0.05
	attrs := ViAttributes{Reliability: ReliableDelivery}

	var received int
	env := newPair(t, m, attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(20000)
			h, _ := nic.RegisterMem(ctx, buf)
			for i := 0; i < msgs; i++ {
				n := sizes[i%len(sizes)]
				buf.FillPattern(byte(i))
				if err := vi.PostSend(ctx, SimpleSend(buf, h, n)); err != nil {
					t.Errorf("post %d: %v", i, err)
					return
				}
				d, err := vi.SendWaitPoll(ctx)
				if err != nil || d.Status != StatusSuccess {
					t.Errorf("send %d: %v %v", i, err, d)
					return
				}
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(20000)
			h, _ := nic.RegisterMem(ctx, buf)
			for i := 0; i < msgs; i++ {
				if err := vi.PostRecv(ctx, SimpleRecv(buf, h, 20000)); err != nil {
					t.Errorf("post recv %d: %v", i, err)
					return
				}
				d, err := vi.RecvWaitPoll(ctx)
				if err != nil || d.Status != StatusSuccess {
					t.Errorf("recv %d: %v %v", i, err, d)
					return
				}
				want := sizes[i%len(sizes)]
				if d.Length != want {
					t.Errorf("recv %d: length %d want %d", i, d.Length, want)
					return
				}
				if err := buf.CheckPattern(byte(i), want); err != nil {
					t.Errorf("recv %d corrupted: %v", i, err)
					return
				}
				received++
			}
		})
	env.run()
	if received != msgs {
		t.Fatalf("received %d of %d", received, msgs)
	}
	if env.sys.Net.Dropped == 0 {
		t.Fatal("soak test dropped nothing; loss injection inert")
	}
}

func TestReliableSoakBidirectional(t *testing.T) {
	// Loss plus simultaneous traffic in both directions.
	const msgs = 25
	m := provider.CLAN()
	m.Network.DropRate = 0.04
	attrs := ViAttributes{Reliability: ReliableDelivery}
	do := func(ctx *Ctx, vi *Vi, nic *Nic, seed byte) {
		buf := ctx.Malloc(6000)
		h, _ := nic.RegisterMem(ctx, buf)
		rbuf := ctx.Malloc(6000)
		rh, _ := nic.RegisterMem(ctx, rbuf)
		if err := vi.PostRecv(ctx, SimpleRecv(rbuf, rh, 6000)); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			buf.FillPattern(seed + byte(i))
			if err := vi.PostSend(ctx, SimpleSend(buf, h, 5000)); err != nil {
				t.Error(err)
				return
			}
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil || d.Status != StatusSuccess {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if i+1 < msgs {
				if err := vi.PostRecv(ctx, SimpleRecv(rbuf, rh, 6000)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := vi.SendWaitPoll(ctx); err != nil {
				t.Errorf("send wait %d: %v", i, err)
				return
			}
		}
	}
	env := newPair(t, m, attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) { do(ctx, vi, nic, 10) },
		func(ctx *Ctx, vi *Vi, nic *Nic) { do(ctx, vi, nic, 200) })
	env.run()
}

// --- additional edge cases ---

func TestImmediateOnMultiFragmentMessage(t *testing.T) {
	// Immediate data rides the final fragment of a fragmented message.
	const n = 20000
	env := newPair(t, provider.BVIA(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(n)
			h, _ := nic.RegisterMem(ctx, buf)
			d := SimpleSend(buf, h, n)
			d.ImmediateData, d.HasImmediate = 77, true
			vi.PostSend(ctx, d)
			vi.SendWaitPoll(ctx)
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(n)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostRecv(ctx, SimpleRecv(buf, h, n))
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil || !d.GotImmediate || d.Immediate != 77 {
				t.Errorf("multi-fragment immediate: %v %v", err, d)
			}
		})
	env.run()
}

func TestRecvBufferTooSmallLengthError(t *testing.T) {
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(8192)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostSend(ctx, SimpleSend(buf, h, 8192))
			vi.SendWaitPoll(ctx)
			// A second, fitting message must still arrive afterwards.
			vi.PostSend(ctx, SimpleSend(buf, h, 100))
			vi.SendWaitPoll(ctx)
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			small := ctx.Malloc(1024)
			h, _ := nic.RegisterMem(ctx, small)
			vi.PostRecv(ctx, SimpleRecv(small, h, 1024)) // too small for 8KB
			vi.PostRecv(ctx, SimpleRecv(small, h, 1024)) // fits the 100B
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if d.Status != StatusLengthError {
				t.Errorf("oversized message: status %v, want LENGTH_ERROR", d.Status)
			}
			d2, err := vi.RecvWaitPoll(ctx)
			if err != nil || d2.Status != StatusSuccess || d2.Length != 100 {
				t.Errorf("follow-up message: %v %v", err, d2)
			}
		})
	env.run()
}

func TestSendOnErroredViRejectedEventually(t *testing.T) {
	// After a transport failure the VI is in the error state; further
	// posts are rejected.
	attrs := ViAttributes{Reliability: ReliableDelivery}
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostSend(ctx, SimpleSend(buf, h, 64))
			d, _ := vi.SendWaitPoll(ctx)
			if d.Status != StatusTransportError {
				t.Errorf("status %v", d.Status)
			}
			if err := vi.PostSend(ctx, SimpleSend(buf, h, 64)); !errors.Is(err, ErrInvalidState) {
				t.Errorf("post on errored VI: %v", err)
			}
			// Destroy works from the error state.
			if err := vi.Destroy(ctx); err != nil {
				t.Errorf("destroy errored VI: %v", err)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.sys.Net.SetInjector(dropInjector(func(pkt *wirePacket) bool { return pkt.kind == pktData }))
	env.run()
}

func TestExactMTUBoundaries(t *testing.T) {
	// A message of exactly k*MTU bytes uses exactly k fragments; one byte
	// more adds a fragment. Verified through fabric packet counts.
	m := provider.BVIA() // 4096B MTU
	for _, tc := range []struct {
		size  int
		frags uint64
	}{{4096, 1}, {4097, 2}, {8192, 2}, {8193, 3}} {
		sys := NewSystem(m, 2, 1)
		before := sys.Net.Sent
		runPingOnce(t, sys, tc.size)
		// Count only data packets: each direction sends tc.frags, plus 2
		// connection-management packets total.
		dataPkts := sys.Net.Sent - before - 2
		if dataPkts != tc.frags*2 {
			t.Errorf("size %d: %d data packets, want %d", tc.size, dataPkts, tc.frags*2)
		}
	}
}

// runPingOnce does a single ping-pong of the given size on a fresh system.
func runPingOnce(t *testing.T, sys *System, size int) {
	t.Helper()
	sys.Go(0, "c", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "x", tmo); err != nil {
			t.Error(err)
			return
		}
		buf := ctx.Malloc(size)
		h, _ := nic.RegisterMem(ctx, buf)
		vi.PostRecv(ctx, SimpleRecv(buf, h, size))
		vi.PostSend(ctx, SimpleSend(buf, h, size))
		vi.SendWaitPoll(ctx)
		vi.RecvWaitPoll(ctx)
	})
	sys.Go(1, "s", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		buf := ctx.Malloc(size)
		h, _ := nic.RegisterMem(ctx, buf)
		vi.PostRecv(ctx, SimpleRecv(buf, h, size))
		req, err := nic.ConnectWait(ctx, "x", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		req.Accept(ctx, vi)
		vi.RecvWaitPoll(ctx)
		vi.PostSend(ctx, SimpleSend(buf, h, size))
		vi.SendWaitPoll(ctx)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyConnectionsSequential(t *testing.T) {
	// Create, connect, transfer, disconnect, destroy — 20 times on one
	// pair of hosts; no state leaks across rounds.
	sys := NewSystem(provider.CLAN(), 2, 1)
	const rounds = 20
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		buf := ctx.Malloc(256)
		h, _ := nic.RegisterMem(ctx, buf)
		for r := 0; r < rounds; r++ {
			vi, err := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := vi.ConnectRequest(ctx, 1, fmt.Sprintf("r%d", r), tmo); err != nil {
				t.Errorf("round %d: %v", r, err)
				return
			}
			vi.PostSend(ctx, SimpleSend(buf, h, 256))
			if _, err := vi.SendWaitPoll(ctx); err != nil {
				t.Error(err)
				return
			}
			if err := vi.Disconnect(ctx); err != nil {
				t.Error(err)
				return
			}
			if err := vi.Destroy(ctx); err != nil {
				t.Error(err)
				return
			}
		}
		if nic.OpenVIs() != 0 {
			t.Errorf("leaked %d VIs", nic.OpenVIs())
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		buf := ctx.Malloc(256)
		h, _ := nic.RegisterMem(ctx, buf)
		for r := 0; r < rounds; r++ {
			vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
			vi.PostRecv(ctx, SimpleRecv(buf, h, 256))
			req, err := nic.ConnectWait(ctx, fmt.Sprintf("r%d", r), tmo)
			if err != nil {
				t.Error(err)
				return
			}
			req.Accept(ctx, vi)
			if _, err := vi.RecvWaitPoll(ctx); err != nil {
				t.Error(err)
				return
			}
			for vi.State() == ViConnected {
				ctx.Sleep(10 * sim.Microsecond)
			}
			vi.Destroy(ctx)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleAcceptRejected(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
			t.Error(err)
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		vi2, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		req, err := nic.ConnectWait(ctx, "svc", tmo)
		if err != nil {
			t.Error(err)
			return
		}
		if err := req.Accept(ctx, vi); err != nil {
			t.Error(err)
		}
		if err := req.Accept(ctx, vi2); !errors.Is(err, ErrInvalidState) {
			t.Errorf("double accept: %v", err)
		}
		if err := req.Reject(ctx); !errors.Is(err, ErrInvalidState) {
			t.Errorf("reject after accept: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}
