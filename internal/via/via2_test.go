package via

import (
	"errors"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
)

// --- completion queues ---

func TestCompletionQueueMergesVIs(t *testing.T) {
	// Two VIs on the server share one recv CQ; the client sends over
	// both; the server drains everything through the CQ.
	sys := NewSystem(provider.CLAN(), 2, 1)
	const msgs = 6
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		buf := ctx.Malloc(256)
		h, _ := nic.RegisterMem(ctx, buf)
		for i := 0; i < 2; i++ {
			vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
			if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			for j := 0; j < msgs/2; j++ {
				vi.PostSend(ctx, SimpleSend(buf, h, 128))
				if _, err := vi.SendWaitPoll(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		cq, err := nic.CreateCQ(ctx, 32)
		if err != nil {
			t.Error(err)
			return
		}
		buf := ctx.Malloc(256)
		h, _ := nic.RegisterMem(ctx, buf)
		for i := 0; i < 2; i++ {
			vi, err := nic.CreateVi(ctx, ViAttributes{}, nil, cq)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < msgs/2; j++ {
				vi.PostRecv(ctx, SimpleRecv(buf, h, 256))
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
		}
		seen := map[int]int{}
		for i := 0; i < msgs; i++ {
			c, err := cq.WaitPoll(ctx)
			if err != nil {
				t.Errorf("cq wait %d: %v", i, err)
				return
			}
			if !c.IsRecv {
				t.Error("send completion on recv CQ")
			}
			d, ok := c.Vi.RecvDone(ctx)
			if !ok || d.Status != StatusSuccess {
				t.Errorf("dequeue after CQ: ok=%v", ok)
			}
			seen[c.Vi.ID()]++
		}
		if len(seen) != 2 {
			t.Errorf("completions from %d VIs, want 2", len(seen))
		}
		if _, ok := cq.Done(ctx); ok {
			t.Error("spurious CQ entry")
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQWaitTimeoutAndDestroy(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 1, 1)
	sys.Go(0, "p", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		cq, _ := nic.CreateCQ(ctx, 4)
		if _, err := cq.Wait(ctx, sim.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("cq wait: %v", err)
		}
		if err := cq.Destroy(ctx); err != nil {
			t.Error(err)
		}
		if err := cq.Destroy(ctx); !errors.Is(err, ErrDestroyed) {
			t.Errorf("double destroy: %v", err)
		}
		if _, err := nic.CreateCQ(ctx, 0); !errors.Is(err, ErrLength) {
			t.Errorf("zero depth: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQOverflowCounted(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	var theCQ *CQ
	sys.Go(0, "client", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, nil)
		if err := vi.ConnectRequest(ctx, 1, "svc", tmo); err != nil {
			t.Error(err)
			return
		}
		buf := ctx.Malloc(64)
		h, _ := nic.RegisterMem(ctx, buf)
		for i := 0; i < 3; i++ {
			vi.PostSend(ctx, SimpleSend(buf, h, 32))
			vi.SendWaitPoll(ctx)
		}
	})
	sys.Go(1, "server", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		cq, _ := nic.CreateCQ(ctx, 1) // depth 1: third completion overflows
		theCQ = cq
		vi, _ := nic.CreateVi(ctx, ViAttributes{}, nil, cq)
		buf := ctx.Malloc(64)
		h, _ := nic.RegisterMem(ctx, buf)
		for i := 0; i < 3; i++ {
			vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
		}
		req, _ := nic.ConnectWait(ctx, "svc", tmo)
		req.Accept(ctx, vi)
		// Do not drain: let completions pile up.
		ctx.Sleep(100 * sim.Millisecond)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if theCQ.Overflows != 2 {
		t.Fatalf("overflows = %d, want 2", theCQ.Overflows)
	}
}

// --- blocking vs polling ---

func TestBlockingWaitIdlesCPU(t *testing.T) {
	// A server blocking on a receive must accumulate almost no busy time;
	// a polling server must be ~100% busy.
	for _, mode := range []string{"poll", "block"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			var util float64
			env := newPair(t, provider.CLAN(), ViAttributes{},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					buf := ctx.Malloc(64)
					h, _ := nic.RegisterMem(ctx, buf)
					ctx.Sleep(5 * sim.Millisecond) // make the server wait
					vi.PostSend(ctx, SimpleSend(buf, h, 64))
					vi.SendWaitPoll(ctx)
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					buf := ctx.Malloc(64)
					h, _ := nic.RegisterMem(ctx, buf)
					vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
					meter := ctx.Host.CPU.StartMeter()
					if mode == "poll" {
						vi.RecvWaitPoll(ctx)
					} else {
						if _, err := vi.RecvWait(ctx, tmo); err != nil {
							t.Error(err)
						}
					}
					util = meter.Utilization()
				})
			env.run()
			if mode == "poll" && util < 0.99 {
				t.Errorf("polling utilization = %v, want ~1", util)
			}
			if mode == "block" && util > 0.05 {
				t.Errorf("blocking utilization = %v, want ~0", util)
			}
		})
	}
}

func TestWaitTimeoutOnSilentPeer(t *testing.T) {
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(64)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
			if _, err := vi.RecvWait(ctx, 2*sim.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("want timeout, got %v", err)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.run()
}

func TestWaitOnEmptyQueueIsInvalid(t *testing.T) {
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			if _, err := vi.RecvWaitPoll(ctx); !errors.Is(err, ErrInvalidState) {
				t.Errorf("empty queue poll-wait: %v", err)
			}
			if _, err := vi.SendWait(ctx, sim.Millisecond); !errors.Is(err, ErrInvalidState) {
				t.Errorf("empty queue wait: %v", err)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.run()
}

// --- reliability ---

func TestReliableLossScripted(t *testing.T) {
	// A test packet injector drops data fragments 1 and 3 once each; the
	// reliable VI must retransmit them and deliver the message intact.
	for _, lv := range []ReliabilityLevel{ReliableDelivery, ReliableReception} {
		lv := lv
		t.Run(lv.String(), func(t *testing.T) {
			const n = 20000
			attrs := ViAttributes{Reliability: lv}
			env := newPair(t, provider.CLAN(), attrs,
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					buf := ctx.Malloc(n)
					h, _ := nic.RegisterMem(ctx, buf)
					buf.FillPattern(9)
					vi.PostSend(ctx, SimpleSend(buf, h, n))
					d, err := vi.SendWaitPoll(ctx)
					if err != nil || d.Status != StatusSuccess {
						t.Errorf("send: %v %v", err, d)
					}
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					buf := ctx.Malloc(n)
					h, _ := nic.RegisterMem(ctx, buf)
					vi.PostRecv(ctx, SimpleRecv(buf, h, n))
					d, err := vi.RecvWaitPoll(ctx)
					if err != nil || d.Status != StatusSuccess || d.Length != n {
						t.Errorf("recv: %v %v", err, d)
						return
					}
					if err := buf.CheckPattern(9, n); err != nil {
						t.Errorf("data after retransmit: %v", err)
					}
				})
			dropped := map[int]bool{}
			env.sys.Net.SetInjector(dropInjector(func(pkt *wirePacket) bool {
				if pkt.kind == pktData && (pkt.frag.Index == 1 || pkt.frag.Index == 3) && !dropped[pkt.frag.Index] {
					dropped[pkt.frag.Index] = true
					return true
				}
				return false
			}))
			env.run()
			if len(dropped) != 2 {
				t.Fatalf("drop injector fired %d times", len(dropped))
			}
		})
	}
}

func TestReliableAckLossRecovered(t *testing.T) {
	attrs := ViAttributes{Reliability: ReliableDelivery}
	var dropOnce bool
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(100)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostSend(ctx, SimpleSend(buf, h, 100))
			d, err := vi.SendWaitPoll(ctx)
			if err != nil || d.Status != StatusSuccess {
				t.Errorf("send after ack loss: %v %v", err, d)
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(100)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostRecv(ctx, SimpleRecv(buf, h, 100))
			if _, err := vi.RecvWaitPoll(ctx); err != nil {
				t.Error(err)
			}
		})
	env.sys.Net.SetInjector(dropInjector(func(pkt *wirePacket) bool {
		if pkt.kind == pktAck && !dropOnce {
			dropOnce = true
			return true
		}
		return false
	}))
	env.run()
	if !dropOnce {
		t.Fatal("no ack was dropped")
	}
}

func TestUnreliableLossDropsMessageSilently(t *testing.T) {
	// With unreliable delivery a lost fragment means the whole message
	// never completes at the receiver; the next message lands in the same
	// descriptor.
	env := newPair(t, provider.CLAN(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(20000)
			h, _ := nic.RegisterMem(ctx, buf)
			buf.FillPattern(1)
			vi.PostSend(ctx, SimpleSend(buf, h, 20000)) // fragment will drop
			vi.SendWaitPoll(ctx)
			buf.FillPattern(2)
			vi.PostSend(ctx, SimpleSend(buf, h, 20000)) // arrives intact
			vi.SendWaitPoll(ctx)
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(20000)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostRecv(ctx, SimpleRecv(buf, h, 20000))
			d, err := vi.RecvWaitPoll(ctx)
			if err != nil || d.Status != StatusSuccess {
				t.Errorf("recv: %v", err)
				return
			}
			if err := buf.CheckPattern(2, 20000); err != nil {
				t.Errorf("second message corrupted: %v", err)
			}
		})
	var fired bool
	env.sys.Net.SetInjector(dropInjector(func(pkt *wirePacket) bool {
		if pkt.kind == pktData && pkt.msgID == 1 && pkt.frag.Index == 2 && !fired {
			fired = true
			return true
		}
		return false
	}))
	env.run()
	if !fired {
		t.Fatal("drop injector never fired")
	}
}

func TestTransportFailureBreaksConnection(t *testing.T) {
	// Drop every data packet: retransmissions exhaust and the descriptor
	// completes with a transport error; the VI enters the error state.
	attrs := ViAttributes{Reliability: ReliableDelivery}
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			buf := ctx.Malloc(100)
			h, _ := nic.RegisterMem(ctx, buf)
			vi.PostSend(ctx, SimpleSend(buf, h, 100))
			d, err := vi.SendWaitPoll(ctx)
			if err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if d.Status != StatusTransportError {
				t.Errorf("status = %v, want TRANSPORT_ERROR", d.Status)
			}
			if vi.State() != ViError {
				t.Errorf("state = %v, want error", vi.State())
			}
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.sys.Net.SetInjector(dropInjector(func(pkt *wirePacket) bool { return pkt.kind == pktData }))
	env.run()
}
