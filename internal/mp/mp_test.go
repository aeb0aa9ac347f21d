package mp

import (
	"fmt"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// runWorld builds an n-host world on the given provider, runs fn on every
// rank, and fails the test on any error.
func runWorld(t *testing.T, m *provider.Model, n int, cfg Config, fn func(ctx *via.Ctx, ep *Endpoint) error) {
	t.Helper()
	sys := via.NewSystem(m, n, 1)
	w := NewWorld(sys, cfg)
	w.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, ep *Endpoint) {
		if err := fn(ctx, ep); err != nil {
			t.Errorf("rank %d: %v", ep.Rank(), err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEagerSendRecv(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			const n = 1000
			runWorld(t, m, 2, DefaultConfig(), func(ctx *via.Ctx, ep *Endpoint) error {
				if ep.Rank() == 0 {
					buf := ctx.Malloc(n)
					buf.FillPattern(9)
					if err := ep.Send(ctx, 1, 7, buf, n); err != nil {
						return err
					}
					if ep.EagerSends != 1 || ep.RendezvousSends != 0 {
						return fmt.Errorf("eager=%d rdv=%d", ep.EagerSends, ep.RendezvousSends)
					}
					return nil
				}
				got, ln, err := ep.Recv(ctx, 0, 7)
				if err != nil {
					return err
				}
				if ln != n {
					return fmt.Errorf("length %d", ln)
				}
				return got.CheckPattern(9, n)
			})
		})
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	for _, m := range provider.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			const n = 30000 // above the 8KB eager limit
			cfg := DefaultConfig()
			runWorld(t, m, 2, cfg, func(ctx *via.Ctx, ep *Endpoint) error {
				if ep.Rank() == 0 {
					buf := ctx.Malloc(n)
					buf.FillPattern(4)
					if err := ep.Send(ctx, 1, 3, buf, n); err != nil {
						return err
					}
					if ep.RendezvousSends != 1 {
						return fmt.Errorf("rendezvous not used")
					}
					return nil
				}
				got, ln, err := ep.Recv(ctx, 0, 3)
				if err != nil {
					return err
				}
				if ln != n {
					return fmt.Errorf("length %d", ln)
				}
				return got.CheckPattern(4, n)
			})
		})
	}
}

func TestZeroAndTinyMessages(t *testing.T) {
	runWorld(t, provider.CLAN(), 2, DefaultConfig(), func(ctx *via.Ctx, ep *Endpoint) error {
		if ep.Rank() == 0 {
			buf := ctx.Malloc(4)
			if err := ep.Send(ctx, 1, 0, buf, 0); err != nil {
				return err
			}
			buf.Bytes()[0] = 0xEE
			return ep.Send(ctx, 1, 1, buf, 1)
		}
		_, ln, err := ep.Recv(ctx, 0, 0)
		if err != nil || ln != 0 {
			return fmt.Errorf("zero-length: %v %d", err, ln)
		}
		got, ln, err := ep.Recv(ctx, 0, 1)
		if err != nil || ln != 1 || got.Bytes()[0] != 0xEE {
			return fmt.Errorf("one-byte: %v %d", err, ln)
		}
		return nil
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// The receiver asks for tag 2 before tag 1; the layer must stash the
	// unexpected tag-1 message and deliver both correctly.
	runWorld(t, provider.CLAN(), 2, DefaultConfig(), func(ctx *via.Ctx, ep *Endpoint) error {
		if ep.Rank() == 0 {
			a := ctx.Malloc(16)
			a.Fill(0xAA)
			if err := ep.Send(ctx, 1, 1, a, 16); err != nil {
				return err
			}
			b := ctx.Malloc(16)
			b.Fill(0xBB)
			return ep.Send(ctx, 1, 2, b, 16)
		}
		got2, _, err := ep.Recv(ctx, 0, 2)
		if err != nil {
			return err
		}
		got1, _, err := ep.Recv(ctx, 0, 1)
		if err != nil {
			return err
		}
		if got2.Bytes()[0] != 0xBB || got1.Bytes()[0] != 0xAA {
			return fmt.Errorf("mismatched payloads: %x %x", got2.Bytes()[0], got1.Bytes()[0])
		}
		return nil
	})
}

func TestManyMessagesExerciseCredits(t *testing.T) {
	// Far more messages than the ring size: flow control must kick in and
	// credit returns must keep the pipe moving.
	const msgs = 100
	cfg := DefaultConfig()
	cfg.RingSize = 8
	var creditMsgs uint64
	runWorld(t, provider.CLAN(), 2, cfg, func(ctx *via.Ctx, ep *Endpoint) error {
		if ep.Rank() == 0 {
			buf := ctx.Malloc(64)
			for i := 0; i < msgs; i++ {
				buf.Bytes()[0] = byte(i)
				if err := ep.Send(ctx, 1, 5, buf, 64); err != nil {
					return fmt.Errorf("send %d: %w", i, err)
				}
			}
			creditMsgs = ep.CreditMsgs
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, _, err := ep.Recv(ctx, 0, 5)
			if err != nil {
				return fmt.Errorf("recv %d: %w", i, err)
			}
			if got.Bytes()[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %d", i, got.Bytes()[0])
			}
		}
		return nil
	})
	_ = creditMsgs // sender-side credit counter counts only its own returns
}

func TestBidirectionalTraffic(t *testing.T) {
	// Simultaneous sends in both directions must not deadlock the credit
	// machinery.
	const msgs = 30
	cfg := DefaultConfig()
	cfg.RingSize = 8
	runWorld(t, provider.BVIA(), 2, cfg, func(ctx *via.Ctx, ep *Endpoint) error {
		other := 1 - ep.Rank()
		buf := ctx.Malloc(128)
		buf.Fill(byte(ep.Rank()))
		for i := 0; i < msgs; i++ {
			if err := ep.Send(ctx, other, 9, buf, 128); err != nil {
				return err
			}
			got, _, err := ep.Recv(ctx, other, 9)
			if err != nil {
				return err
			}
			if got.Bytes()[0] != byte(other) {
				return fmt.Errorf("wrong sender byte")
			}
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	const ranks = 4
	arrived := make([]int, ranks)
	order := 0
	runWorld(t, provider.CLAN(), ranks, DefaultConfig(), func(ctx *via.Ctx, ep *Endpoint) error {
		// Stagger entry so the barrier actually waits.
		ctx.Sleep(sim.Duration(ep.Rank()) * 50 * sim.Microsecond)
		if err := ep.Barrier(ctx); err != nil {
			return err
		}
		arrived[ep.Rank()] = order
		order++
		return ep.Barrier(ctx) // second barrier re-uses the tags cleanly
	})
	if order != ranks {
		t.Fatalf("only %d ranks passed the barrier", order)
	}
}

func TestBcastAndGather(t *testing.T) {
	const ranks = 3
	const n = 20000 // rendezvous-size broadcast
	runWorld(t, provider.CLAN(), ranks, DefaultConfig(), func(ctx *via.Ctx, ep *Endpoint) error {
		var payload = ctx.Malloc(n)
		if ep.Rank() == 1 {
			payload.FillPattern(6)
		}
		got, ln, err := ep.Bcast(ctx, 1, payload, n)
		if err != nil {
			return err
		}
		if ln != n {
			return fmt.Errorf("bcast length %d", ln)
		}
		if err := got.CheckPattern(6, n); err != nil {
			return err
		}
		// Gather each rank's id byte at root 0.
		mine := ctx.Malloc(4)
		mine.Fill(byte(0x40 + ep.Rank()))
		res, err := ep.Gather(ctx, 0, mine, 4)
		if err != nil {
			return err
		}
		if ep.Rank() == 0 {
			for r := 0; r < ranks; r++ {
				if res[r].Bytes()[0] != byte(0x40+r) {
					return fmt.Errorf("gather slot %d = %x", r, res[r].Bytes()[0])
				}
			}
		}
		return nil
	})
}

func TestRegCacheBehaviour(t *testing.T) {
	// Repeated rendezvous from the same buffer hits the cache after the
	// first send.
	const n = 20000
	cfg := DefaultConfig()
	runWorld(t, provider.CLAN(), 2, cfg, func(ctx *via.Ctx, ep *Endpoint) error {
		if ep.Rank() == 0 {
			buf := ctx.Malloc(n)
			for i := 0; i < 5; i++ {
				if err := ep.Send(ctx, 1, 2, buf, n); err != nil {
					return err
				}
			}
			hits, misses, _ := ep.CacheStats()
			if misses != 1 || hits != 4 {
				return fmt.Errorf("cache hits=%d misses=%d, want 4/1", hits, misses)
			}
			return nil
		}
		for i := 0; i < 5; i++ {
			if _, _, err := ep.Recv(ctx, 0, 2); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestRegCacheEviction(t *testing.T) {
	const n = 20000
	cfg := DefaultConfig()
	cfg.RegCache = 2
	runWorld(t, provider.CLAN(), 2, cfg, func(ctx *via.Ctx, ep *Endpoint) error {
		if ep.Rank() == 0 {
			a, b, c := ctx.Malloc(n), ctx.Malloc(n), ctx.Malloc(n)
			for _, buf := range []*vmem.Buffer{a, b, c, a} {
				if err := ep.Send(ctx, 1, 2, buf, n); err != nil {
					return err
				}
			}
			_, _, ev := ep.CacheStats()
			if ev == 0 {
				return fmt.Errorf("no evictions with capacity 2 and 3 buffers")
			}
			return nil
		}
		for i := 0; i < 4; i++ {
			if _, _, err := ep.Recv(ctx, 0, 2); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestSelfSendAndNegativeTagRejected(t *testing.T) {
	runWorld(t, provider.CLAN(), 2, DefaultConfig(), func(ctx *via.Ctx, ep *Endpoint) error {
		buf := ctx.Malloc(8)
		if err := ep.Send(ctx, ep.Rank(), 0, buf, 8); err == nil {
			return fmt.Errorf("self-send accepted")
		}
		if err := ep.Send(ctx, 1-ep.Rank(), -1, buf, 8); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, _, err := ep.Recv(ctx, 1-ep.Rank(), -1); err == nil {
			return fmt.Errorf("negative recv tag accepted")
		}
		return nil
	})
}

func TestMPDeterminism(t *testing.T) {
	run := func() uint64 {
		sys := via.NewSystem(provider.BVIA(), 3, 9)
		w := NewWorld(sys, DefaultConfig())
		var total uint64
		w.Run(func(err error) { t.Error(err) }, func(ctx *via.Ctx, ep *Endpoint) {
			buf := ctx.Malloc(256)
			other := (ep.Rank() + 1) % 3
			prev := (ep.Rank() + 2) % 3
			for i := 0; i < 10; i++ {
				if err := ep.Send(ctx, other, 1, buf, 256); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := ep.Recv(ctx, prev, 1); err != nil {
					t.Error(err)
					return
				}
			}
			total += uint64(ctx.Now())
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}
