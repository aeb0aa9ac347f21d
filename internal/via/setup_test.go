package via

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
)

// TestPairBothRoles connects one VI pair with Pair on both sides: host 0
// dials, host 1 waits and accepts. Both VIs end up connected to each
// other, and a send crosses the new connection.
func TestPairBothRoles(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	var dialer, acceptor *Vi
	var got string
	sys.Go(0, "dial", func(ctx *Ctx) {
		vi, err := ctx.OpenNic().CreateVi(ctx, ViAttributes{}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := Pair(ctx, vi, 1, "both", true, tmo); err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		dialer = vi
		r, err := ctx.OpenNic().AllocReg(ctx, 16)
		if err != nil {
			t.Error(err)
			return
		}
		copy(r.Buf.Bytes(), "hello")
		if err := vi.PostSend(ctx, SimpleSend(r.Buf, r.H, 5)); err != nil {
			t.Error(err)
			return
		}
		if _, err := vi.SendWait(ctx, tmo); err != nil {
			t.Error(err)
		}
	})
	sys.Go(1, "accept", func(ctx *Ctx) {
		vi, err := ctx.OpenNic().CreateVi(ctx, ViAttributes{}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		ring, err := vi.PostRing(ctx, 1, 16)
		if err != nil {
			t.Error(err)
			return
		}
		if err := Pair(ctx, vi, 0, "both", false, tmo); err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		acceptor = vi
		d, err := vi.RecvWait(ctx, tmo)
		if err != nil || d.Status != StatusSuccess {
			t.Errorf("recv: %v %v", d, err)
			return
		}
		got = string(ring.Slot(0).Buf.Bytes()[:d.Length])
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if dialer == nil || acceptor == nil {
		t.Fatal("a side did not connect")
	}
	if dialer.State() != ViConnected || acceptor.State() != ViConnected {
		t.Errorf("states = %v / %v, want both connected", dialer.State(), acceptor.State())
	}
	if dialer.conn.peerVi != acceptor.ID() || acceptor.conn.peerVi != dialer.ID() {
		t.Error("the two VIs are not each other's peer")
	}
	if got != "hello" {
		t.Errorf("received %q, want %q", got, "hello")
	}
}

// TestPairTimesOutWithoutPeer: with nobody on the other side, both roles
// give up after the timeout with ErrTimeout, wrapped with the step and
// the discriminator.
// TestLoopbackPair connects a VI pair whose ends are both on host 0: VIPL
// lets a VI dial its own node, and the fabric then delivers NIC-locally
// (fabric.Network.sendLocal) with no link or switch propagation. At every
// reliability level a 4 B message and a 12,288 B message (three 4 KiB cLAN
// fragments) must arrive intact.
func TestLoopbackPair(t *testing.T) {
	const big = 12288
	sizes := []int{4, big}
	for _, rel := range []ReliabilityLevel{Unreliable, ReliableDelivery, ReliableReception} {
		t.Run(rel.String(), func(t *testing.T) {
			m := provider.CLAN()
			if n := (big + m.WireMTU - 1) / m.WireMTU; n != 3 {
				t.Fatalf("%d B is %d fragments at WireMTU %d, want 3", big, n, m.WireMTU)
			}
			sys := NewSystem(m, 1, 1)
			attrs := ViAttributes{Reliability: rel}
			sys.Go(0, "server", func(ctx *Ctx) {
				vi, err := ctx.OpenNic().CreateVi(ctx, attrs, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				ring, err := vi.PostRing(ctx, len(sizes), big)
				if err != nil {
					t.Error(err)
					return
				}
				if err := Pair(ctx, vi, 0, "loop", false, tmo); err != nil {
					t.Error(err)
					return
				}
				for i, n := range sizes {
					d, err := vi.RecvWait(ctx, tmo)
					if err != nil || d.Status != StatusSuccess || d.Length != n {
						t.Errorf("recv %d B: %v %v", n, d, err)
						return
					}
					if err := ring.Slot(i).Buf.CheckPattern(byte(i+1), n); err != nil {
						t.Errorf("recv %d B: %v", n, err)
					}
				}
			})
			sys.Go(0, "client", func(ctx *Ctx) {
				nic := ctx.OpenNic()
				vi, err := nic.CreateVi(ctx, attrs, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := Pair(ctx, vi, 0, "loop", true, tmo); err != nil {
					t.Error(err)
					return
				}
				for i, n := range sizes {
					r, err := nic.AllocReg(ctx, n)
					if err != nil {
						t.Error(err)
						return
					}
					r.Buf.FillPattern(byte(i + 1))
					if err := vi.PostSend(ctx, SimpleSend(r.Buf, r.H, n)); err != nil {
						t.Error(err)
						return
					}
					if d, err := vi.SendWait(ctx, tmo); err != nil || d.Status != StatusSuccess {
						t.Errorf("send %d B: %v %v", n, d, err)
						return
					}
				}
			})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if sys.Net.PropTime != 0 {
				t.Errorf("loopback accrued propagation time %v", sys.Net.PropTime)
			}
			if err := sys.Close(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestPairTimesOutWithoutPeer(t *testing.T) {
	for _, dial := range []bool{true, false} {
		sys := NewSystem(provider.CLAN(), 2, 1)
		var err error
		var at sim.Time
		sys.Go(0, "lonely", func(ctx *Ctx) {
			vi, e := ctx.OpenNic().CreateVi(ctx, ViAttributes{}, nil, nil)
			if e != nil {
				t.Error(e)
				return
			}
			err = Pair(ctx, vi, 1, "nobody", dial, sim.Millisecond)
			at = ctx.Now()
		})
		if e := sys.Run(); e != nil {
			t.Fatal(e)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("dial=%v: Pair = %v, want ErrTimeout", dial, err)
		}
		if err == nil || !strings.Contains(err.Error(), "nobody") {
			t.Errorf("dial=%v: error %v does not name the discriminator", dial, err)
		}
		if at < sim.Time(0).Add(sim.Millisecond) {
			t.Errorf("dial=%v: gave up at %v, before the 1ms timeout", dial, at)
		}
	}
}

// TestPostRingFillsSlotsInOrder: the ring is posted slot by slot, so the
// first message to arrive lands in slot 0 and the next in slot 1. The
// receiver then holds slot 0 and re-posts slot 1 first, so the next three
// messages land in slots 2, 3 and 1, and the one after the late re-post
// of slot 0 lands there. Next names each slot, and the slot it names
// holds that message. The sender's PostSendPoll checks each send; last,
// its RDMA write to a bogus remote handle completes with
// RDMA_PROTECTION_ERROR, which PostSendPoll returns as a *StatusError.
func TestPostRingFillsSlotsInOrder(t *testing.T) {
	const slots, size, msgs = 4, 64, 6
	var ring *Ring
	var landed []int
	var badWrite error
	attrs := ViAttributes{EnableRdmaWrite: true, Reliability: ReliableDelivery}
	env := newPair(t, provider.CLAN(), attrs,
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			r, err := nic.AllocReg(ctx, size)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < msgs; i++ {
				ctx.Sleep(sim.Millisecond) // let the server post or re-post
				r.Buf.Bytes()[0] = byte(10 + i)
				if err := vi.PostSendPoll(ctx, SimpleSend(r.Buf, r.H, 1)); err != nil {
					t.Error(err)
					return
				}
			}
			badWrite = vi.PostSendPoll(ctx, &Descriptor{
				Op:     OpRdmaWrite,
				Segs:   []DataSegment{{Addr: r.Buf.Addr(), Handle: r.H, Length: size}},
				Remote: &AddressSegment{Addr: 0xF0000000, Handle: 999},
			})
		},
		func(ctx *Ctx, vi *Vi, nic *Nic) {
			var err error
			if ring, err = vi.PostRing(ctx, slots, size); err != nil {
				t.Error(err)
				return
			}
			if vi.RecvQueueDepth() != slots {
				t.Errorf("posted %d receives, want %d", vi.RecvQueueDepth(), slots)
			}
			for i := 0; i < msgs; i++ {
				s, err := ring.Next(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if got := ring.Slot(s).Buf.Bytes()[0]; got != byte(10+i) {
					t.Errorf("message %d: slot %d holds %d, want %d", i, s, got, 10+i)
				}
				landed = append(landed, s)
				switch i {
				case 1:
					err = ring.Repost(ctx, 1)
				case 4:
					err = ring.Repost(ctx, 0)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
	env.run()
	if want := []int{0, 1, 2, 3, 1, 0}; fmt.Sprint(landed) != fmt.Sprint(want) {
		t.Errorf("messages landed in slots %v, want %v", landed, want)
	}
	var se *StatusError
	if !errors.As(badWrite, &se) || se.Status != StatusRdmaProtError {
		t.Errorf("bogus RDMA write: PostSendPoll = %v, want a *StatusError with RDMA_PROTECTION_ERROR", badWrite)
	}
}

// TestAllocRegReturnsRegisterError: AllocReg allocates in the NIC host's
// memory, so a process on another host cannot register the buffer; the
// registration error comes back with the zero Reg, not a buffer without
// a handle.
func TestAllocRegReturnsRegisterError(t *testing.T) {
	sys := NewSystem(provider.CLAN(), 2, 1)
	var ok, bad Reg
	var okErr, badErr error
	sys.Go(0, "local", func(ctx *Ctx) {
		ok, okErr = ctx.OpenNic().AllocReg(ctx, 100)
	})
	sys.Go(1, "remote", func(ctx *Ctx) {
		bad, badErr = sys.Host(0).nic.AllocReg(ctx, 100)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if okErr != nil || ok.Buf == nil || ok.Buf.Len() != 100 || sys.Host(0).nic.regions[ok.H] == nil {
		t.Errorf("local AllocReg = %+v, %v; want a registered 100-byte buffer", ok, okErr)
	}
	if !errors.Is(badErr, ErrProtection) {
		t.Errorf("cross-host AllocReg error = %v, want ErrProtection", badErr)
	}
	if bad != (Reg{}) {
		t.Errorf("cross-host AllocReg returned %+v with its error, want the zero Reg", bad)
	}
}
