package trace

import (
	"testing"
	"unsafe"

	"vibe/internal/sim"
)

// The record shapes of the simulator's six trace call sites.
var (
	kLinkTx   = sim.NewTraceKind(sim.TrackLink, "tx dst=%d %dB")
	kLinkRx   = sim.NewTraceKind(sim.TrackLink, "rx src=%d %dB")
	kFwd      = sim.NewTraceKind(sim.TrackSwitch, "fwd dst=%d %dB hop=%d/%d")
	kDoorbell = sim.NewTraceKind(sim.TrackNIC, "doorbell vi=%d op=%d len=%d")
	kNICRx    = sim.NewTraceKind(sim.TrackNIC, "rx kind=%d from=%d vi=%d msg=%d frag=%d+%d")
	kSpan     = sim.NewTraceKind(sim.TrackSpan, "send %dB ok")
)

// instant is a record of kind k on instance inst at time at.
func instant(at sim.Time, k *sim.TraceKind, inst int32, args ...int32) sim.TraceRecord {
	rec := sim.TraceRecord{At: at, Kind: k, Inst: inst}
	copy(rec.Args[:], args)
	return rec
}

func name(e Entry) string { return string(e.Kind.AppendName(nil, &e.Args)) }

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	r.Trace(instant(10, kLinkTx, 0, 1, 64))
	r.Trace(instant(20, kLinkRx, 1, 0, 96))
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	es := r.Entries()
	if es[0].At != 10 || name(es[1]) != "rx src=0 96B" || es[1].Inst != 1 || es[1].Pid != 0 {
		t.Fatalf("entries = %v", es)
	}
}

func TestRecorderLimit(t *testing.T) {
	r := Recorder{Limit: 2}
	for i := int32(1); i <= 3; i++ {
		r.Trace(instant(sim.Time(i), kLinkTx, 0, i, 8))
	}
	if r.Len() != 2 || r.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	if es := r.Entries(); name(es[0]) != "tx dst=2 8B" || name(es[1]) != "tx dst=3 8B" {
		t.Fatalf("wrong survivors: %v", es)
	}
}

// TestRecorderRingOrder exercises wraparound: after many events through a
// small ring, Entries must still present the survivors oldest first,
// with the drop count right.
func TestRecorderRingOrder(t *testing.T) {
	r := Recorder{Limit: 4}
	for i := 1; i <= 10; i++ {
		r.Trace(instant(sim.Time(i), kLinkTx, 0, int32(i)))
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	for i, e := range r.Entries() {
		if e.Args[0] != int32(7+i) || e.At != sim.Time(7+i) {
			t.Fatalf("entries = %v, want args and times 7..10", r.Entries())
		}
	}
}

// TestRecorderWithEngine checks the engine's one trace entry point: an
// instant and a span land as typed records, stamped with the system pid.
func TestRecorderWithEngine(t *testing.T) {
	e := sim.NewEngine(1)
	var r Recorder
	e.SetTracer(r.ForSystem())
	e.At(5, func() {
		e.Trace(e.Now(), 0, kDoorbell, 2, 1, 0, 64)
		e.Trace(3, 2, kSpan, 1, 4096)
	})
	e.MustRun()
	es := r.Entries()
	if len(es) != 2 || es[0].Pid != 1 || es[0].At != 5 || es[0].Dur != 0 || es[0].Inst != 2 ||
		name(es[0]) != "doorbell vi=1 op=0 len=64" {
		t.Fatalf("instant = %+v", es)
	}
	if es[1].At != 3 || es[1].Dur != 2 || es[1].Kind.Track != sim.TrackSpan || name(es[1]) != "send 4096B ok" {
		t.Fatalf("span = %+v", es[1])
	}
}

// TestEntrySize pins the record's footprint: one ring slot, pid included,
// fits a 64-byte cache line and holds no separately allocated string.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 64 {
		t.Fatalf("Entry is %d bytes, want <= 64", n)
	}
}

// TestTraceRecordZeroAlloc pins the hot-path contract with tracing on:
// once the ring is at Limit, recording any of the six call-site shapes
// through the engine allocates nothing.
func TestTraceRecordZeroAlloc(t *testing.T) {
	e := sim.NewEngine(1)
	r := Recorder{Limit: 64}
	e.SetTracer(r.ForSystem())
	for i := 0; i < r.Limit; i++ {
		e.Trace(sim.Time(i), 0, kLinkTx, 0, 1, 64)
	}
	shapes := map[string]func(){
		"link tx":  func() { e.Trace(e.Now(), 0, kLinkTx, 0, 1, 64) },
		"link rx":  func() { e.Trace(e.Now(), 0, kLinkRx, 1, 0, 64) },
		"fwd":      func() { e.Trace(e.Now(), 606, kFwd, 3, 1, 64, 1, 2) },
		"doorbell": func() { e.Trace(e.Now(), 0, kDoorbell, 0, 1, 0, 64) },
		"nic rx":   func() { e.Trace(e.Now(), 0, kNICRx, 1, 0, 0, 1, 7, 0, 64) },
		"span":     func() { e.Trace(e.Now(), 6173, kSpan, 0, 64) },
	}
	for shape, rec := range shapes {
		if n := testing.AllocsPerRun(200, rec); n != 0 {
			t.Errorf("%s: recording allocated %.1f per run at Limit", shape, n)
		}
	}
	if r.Len() != r.Limit || r.Dropped() == 0 {
		t.Fatalf("len=%d dropped=%d: ring not at Limit", r.Len(), r.Dropped())
	}
}
