package stream

import (
	"io"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/via"
)

// Regression: a large one-way transfer ending in Close must not gridlock
// on below-threshold window updates (both sides stalled in their control
// paths). This is the failure mode the data/control window split fixes.
func TestLargeTransferCloseNoGridlock(t *testing.T) {
	sys := via.NewSystem(provider.MVIA(), 2, 21)
	const total = 2 << 20
	sys.Go(0, "w", func(ctx *via.Ctx) {
		c, err := Dial(ctx, 1, "f", DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, total)
		if _, err := c.Write(ctx, buf); err != nil {
			t.Error(err)
			return
		}
		t.Logf("writer done write, window=%d stalls=%d", c.dataWindow*c.cfg.Segment, c.WindowStalls)
		if err := c.Close(ctx); err != nil {
			t.Error(err)
			return
		}
		t.Logf("writer closed")
	})
	sys.Go(1, "r", func(ctx *via.Ctx) {
		c, err := Listen(ctx, "f", DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 16384)
		got := 0
		for {
			n, err := c.Read(ctx, buf)
			got += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		t.Logf("reader got %d", got)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}
