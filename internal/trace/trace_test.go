package trace

import (
	"testing"

	"vibe/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	r.Trace(10, "a")
	r.Trace(20, "bb")
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	es := r.Entries()
	if es[0].At != 10 || es[1].What != "bb" {
		t.Fatalf("entries = %v", es)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRecorderLimit(t *testing.T) {
	r := Recorder{Limit: 2}
	r.Trace(1, "a")
	r.Trace(2, "b")
	r.Trace(3, "c")
	if r.Len() != 2 || r.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	if r.Entries()[0].What != "b" || r.Entries()[1].What != "c" {
		t.Fatalf("wrong survivors: %v", r.Entries())
	}
}

// TestRecorderRingOrder exercises wraparound: after many events through a
// small ring, Entries must still present the survivors oldest first,
// with the drop count right.
func TestRecorderRingOrder(t *testing.T) {
	r := Recorder{Limit: 4}
	for i := 1; i <= 10; i++ {
		r.Trace(sim.Time(i), string(rune('a'+i-1)))
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	es := r.Entries()
	want := []string{"g", "h", "i", "j"}
	for i, w := range want {
		if es[i].What != w || es[i].At != sim.Time(7+i) {
			t.Fatalf("entries = %v, want %v", es, want)
		}
	}
}

func TestRecorderWithEngine(t *testing.T) {
	e := sim.NewEngine(1)
	var r Recorder
	e.SetTracer(&r)
	e.At(5, func() { e.Tracef("tick %d", 1) })
	e.MustRun()
	if r.Len() != 1 || r.Entries()[0].At != 5 || r.Entries()[0].What != "tick 1" {
		t.Fatalf("engine trace = %v", r.Entries())
	}
}
