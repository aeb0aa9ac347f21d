package nicsim

import (
	"testing"

	"vibe/internal/sim"
)

func TestRTOLegacyBackoffLadder(t *testing.T) {
	var r RTO
	base := sim.Millisecond
	r.Init(base, 6)
	// Consecutive timeouts of the same stuck sequence escalate 1, 2, 4,
	// ... up to the cap; the first interval is not a backoff.
	want := []sim.Duration{
		base, 2 * base, 4 * base, 8 * base, 16 * base, 32 * base,
	}
	for i, w := range want {
		if giveUp := r.Stalled(7); giveUp != (i >= 6) {
			t.Fatalf("stall %d: giveUp = %v", i+1, giveUp)
		}
		if d := r.Backoff(); d != w {
			t.Fatalf("stall %d: Backoff = %v, want %v", i+1, d, w)
		}
	}
	if r.Backoffs != uint64(len(want)-1) {
		t.Fatalf("Backoffs = %d, want %d", r.Backoffs, len(want)-1)
	}

	// The seventh consecutive stall crosses MaxStalls=6, and the interval
	// stays capped at Base << rtoBackoffCap.
	if !r.Stalled(7) {
		t.Fatal("stall 7 should give up with MaxStalls=6")
	}
	if d, max := r.Backoff(), base<<rtoBackoffCap; d != max {
		t.Fatalf("capped Backoff = %v, want %v", d, max)
	}
}

func TestRTOProgressResetsStalls(t *testing.T) {
	var r RTO
	r.Init(sim.Millisecond, 3)
	for i := 0; i < 3; i++ {
		if r.Stalled(10) {
			t.Fatalf("gave up after %d stalls with MaxStalls=3", i+1)
		}
	}
	// The oldest unacked sequence advanced: the window made progress, so
	// the retry budget refills and backoff restarts from the base.
	if r.Stalled(11) {
		t.Fatal("gave up on first stall of a new sequence")
	}
	if d := r.Backoff(); d != sim.Millisecond {
		t.Fatalf("Backoff after progress = %v, want base", d)
	}
}

func TestRTOInitResets(t *testing.T) {
	var r RTO
	r.Init(sim.Millisecond, 2)
	r.Stalled(3)
	r.Stalled(3)
	r.Backoff()
	r.Init(2*sim.Millisecond, 4)
	if r.Base != 2*sim.Millisecond || r.Backoffs != 0 {
		t.Fatalf("Init did not reset: %v backoffs=%d", r.Base, r.Backoffs)
	}
	// The sentinel makes the first post-Init timeout count as a fresh
	// stall even for sequence 0... including the max sentinel value.
	if r.Stalled(0) {
		t.Fatal("first stall after Init gave up")
	}
	if d := r.Backoff(); d != 2*sim.Millisecond {
		t.Fatalf("first Backoff after Init = %v", d)
	}
}
