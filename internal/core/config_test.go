package core

import (
	"errors"
	"testing"
	"testing/quick"

	"vibe/internal/mp"
	"vibe/internal/provider"
	"vibe/internal/via"
)

// TestSimulateFailureBeatsDeadlock is mpPingPong's failure path: rank 0
// fails at iteration 3 while rank 1 is blocked in a receive that nothing
// will ever satisfy. The result must be rank 0's error, not the deadlock
// report the abandoned rank would otherwise produce.
func TestSimulateFailureBeatsDeadlock(t *testing.T) {
	errX := errors.New("rank 0 failed at iteration 3")
	cfg := DefaultConfig(provider.CLAN())
	read := false
	err := cfg.Simulate(2, func(sys *via.System, fail func(error)) {
		mp.NewWorld(sys, mp.DefaultConfig()).Run(fail, func(ctx *via.Ctx, ep *mp.Endpoint) {
			buf := ctx.Malloc(64)
			other := 1 - ep.Rank()
			for i := 0; ; i++ {
				if ep.Rank() == 0 {
					if i == 3 {
						fail(errX)
						return
					}
					if err := ep.Send(ctx, other, 1, buf, 64); err != nil {
						fail(err)
						return
					}
				}
				if _, _, err := ep.Recv(ctx, other, 1); err != nil {
					fail(err)
					return
				}
				if ep.Rank() == 1 {
					if err := ep.Send(ctx, other, 1, buf, 64); err != nil {
						fail(err)
						return
					}
				}
			}
		})
	}, func(*via.System) { read = true })
	if !errors.Is(err, errX) {
		t.Fatalf("Simulate = %v, want the failing rank's error %q", err, errX)
	}
	if !read {
		t.Error("read was not called after a failed run")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	o := XferOpts{}.normalized()
	if o.ActiveVIs != 1 || o.Segments != 1 || o.ReusePct != 100 || o.PoolBuffers != 1 {
		t.Fatalf("base normalization wrong: %+v", o)
	}
	v := XferOpts{VaryBuffers: true}.normalized()
	if v.PoolBuffers != 64 {
		t.Fatalf("vary-buffers pool default = %d", v.PoolBuffers)
	}
	k := XferOpts{VaryBuffers: true, PoolBuffers: 8}.normalized()
	if k.PoolBuffers != 8 {
		t.Fatalf("explicit pool overridden: %d", k.PoolBuffers)
	}
}

func TestReusePatternExactFraction(t *testing.T) {
	// Over any window of 100 iterations, exactly ReusePct reuse the base
	// buffer (Bresenham spreading).
	for _, pct := range []int{0, 25, 50, 75, 100} {
		o := XferOpts{VaryBuffers: true, ReusePct: pct}.normalized()
		reused := 0
		for i := 0; i < 100; i++ {
			if o.reuseBase(i) {
				reused++
			}
		}
		if reused != pct {
			t.Errorf("ReusePct=%d: %d/100 iterations reused", pct, reused)
		}
	}
}

func TestReusePatternSpreadEvenly(t *testing.T) {
	// 50% reuse must alternate, not burst.
	o := XferOpts{VaryBuffers: true, ReusePct: 50}.normalized()
	run := 0
	for i := 0; i < 200; i++ {
		if o.reuseBase(i) {
			run++
			if run > 1 {
				t.Fatalf("50%% reuse produced a run of %d consecutive reuses at %d", run, i)
			}
		} else {
			run = 0
		}
	}
}

func TestPickBufProperties(t *testing.T) {
	f := func(pct8, pool8 uint8, i uint16) bool {
		o := XferOpts{
			VaryBuffers: true,
			ReusePct:    int(pct8) % 101,
			PoolBuffers: int(pool8%32) + 2,
		}.normalized()
		bi := o.pickBuf(int(i))
		if bi < 0 || bi >= o.PoolBuffers {
			return false
		}
		// Reused iterations always pick buffer 0; others never do.
		if o.reuseBase(int(i)) != (bi == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBaseOptsAlwaysPickBufferZero(t *testing.T) {
	o := XferOpts{}.normalized()
	for i := 0; i < 50; i++ {
		if o.pickBuf(i) != 0 {
			t.Fatalf("base config picked pool buffer %d", o.pickBuf(i))
		}
	}
}

func TestCompletionModeString(t *testing.T) {
	if Polling.String() != "polling" || Blocking.String() != "blocking" {
		t.Fatal("mode names")
	}
}
