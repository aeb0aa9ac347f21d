package fabric

import (
	"testing"

	"vibe/internal/sim"
)

// fnInjector adapts a function to the PacketInjector interface.
type fnInjector func(index uint64, now sim.Time, d *Delivery) PacketFault

func (f fnInjector) InjectPacket(index uint64, now sim.Time, d *Delivery) PacketFault {
	return f(index, now, d)
}

func TestDropCauseAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 3, testParams())
	nw.SetInjector(fnInjector(func(index uint64, _ sim.Time, _ *Delivery) PacketFault {
		return PacketFault{Drop: index == 0}
	}))
	e.At(0, func() {
		nw.Send(0, 2, 100, "lost")
		nw.Send(1, 2, 100, "kept")
	})
	var got []string
	e.Spawn("rx", func(p *sim.Proc) {
		got = append(got, nw.Inbox(2).Pop(p).Payload.(string))
	})
	e.MustRun()
	if nw.Sent != 2 || nw.Dropped != 1 || nw.Delivered != 1 || len(got) != 1 || got[0] != "kept" {
		t.Fatalf("sent=%d dropped=%d delivered=%d got=%v", nw.Sent, nw.Dropped, nw.Delivered, got)
	}
	if nw.DroppedBy(DropCauseFault) != 1 || nw.DroppedBy(DropCauseRate) != 0 {
		t.Fatalf("per-cause drops: fault=%d rate=%d",
			nw.DroppedBy(DropCauseFault), nw.DroppedBy(DropCauseRate))
	}
	// Drops are attributed to the transmitting link.
	s0, s1 := nw.LinkStats(0), nw.LinkStats(1)
	if s0.DroppedFault != 1 || s0.Dropped != 1 {
		t.Fatalf("link 0 stats: %+v", s0)
	}
	if s1.Dropped != 0 {
		t.Fatalf("link 1 stats: %+v", s1)
	}
	if s := nw.LinkStats(2); s.Dropped != 0 {
		t.Fatalf("receiving link charged with drops: %+v", s)
	}
}

// An injector drop must not draw the DropRate coin: after the injector
// claims the first k packets, the rate coin sees packet k exactly as a
// same-seed fabric without the injector sees packet 0.
func TestInjectorDropDrawsNoRateCoin(t *testing.T) {
	const k, n = 5, 64
	run := func(withInjector bool) (*Network, []bool) {
		e := sim.NewEngine(7)
		p := testParams()
		p.DropRate = 0.5
		nw := New(e, 2, p)
		if withInjector {
			nw.SetInjector(fnInjector(func(index uint64, _ sim.Time, _ *Delivery) PacketFault {
				return PacketFault{Drop: index < k}
			}))
		}
		var dropped []bool
		e.At(0, func() {
			for i := 0; i < n; i++ {
				before := nw.DroppedBy(DropCauseRate)
				nw.Send(0, 1, 10, i)
				dropped = append(dropped, nw.DroppedBy(DropCauseRate) > before)
			}
		})
		e.MustRun()
		return nw, dropped
	}
	plain, want := run(false)
	injected, got := run(true)
	for i := 0; i < k; i++ {
		if got[i] {
			t.Fatalf("packet %d: injector-dropped packet also counted as a rate drop", i)
		}
	}
	for i := k; i < n; i++ {
		if got[i] != want[i-k] {
			t.Fatalf("packet %d: rate drop %v, want %v (packet %d of the plain fabric)", i, got[i], want[i-k], i-k)
		}
	}
	if plain.DroppedBy(DropCauseRate) == 0 || injected.DroppedBy(DropCauseFault) != k {
		t.Fatalf("plain rate drops=%d, injected fault drops=%d", plain.DroppedBy(DropCauseRate), injected.DroppedBy(DropCauseFault))
	}
	if s := injected.LinkStats(0); s.Dropped != s.DroppedFault+s.DroppedRate || s.Dropped != injected.Dropped {
		t.Fatalf("link split does not sum: %+v, total %d", s, injected.Dropped)
	}
}

func TestInjectedCorruptionDeliversMarked(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	nw.SetInjector(fnInjector(func(index uint64, _ sim.Time, _ *Delivery) PacketFault {
		return PacketFault{Corrupt: index == 0}
	}))
	var got []*Delivery
	e.At(0, func() {
		nw.Send(0, 1, 100, "bad")
		nw.Send(0, 1, 100, "good")
	})
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, nw.Inbox(1).Pop(p))
		}
	})
	e.MustRun()
	if !got[0].Corrupted || got[1].Corrupted {
		t.Fatalf("corruption flags: %v %v", got[0].Corrupted, got[1].Corrupted)
	}
	// Corrupt frames still cost wire time and count as delivered: the
	// receiving NIC is what discards them.
	if nw.Corrupted != 1 || nw.Delivered != 2 || nw.Dropped != 0 {
		t.Fatalf("corrupted=%d delivered=%d dropped=%d", nw.Corrupted, nw.Delivered, nw.Dropped)
	}
}

func TestInjectedDuplicationSharesPayload(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	nw.SetInjector(fnInjector(func(index uint64, _ sim.Time, _ *Delivery) PacketFault {
		return PacketFault{Duplicates: 1}
	}))
	var got []*Delivery
	e.At(0, func() { nw.Send(0, 1, 100, "twice") })
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, nw.Inbox(1).Pop(p))
		}
	})
	e.MustRun()
	if len(got) != 2 {
		t.Fatalf("got %d deliveries", len(got))
	}
	for i, d := range got {
		if d.Payload.(string) != "twice" {
			t.Fatalf("copy %d payload %v", i, d.Payload)
		}
		if !d.Shared {
			t.Fatalf("copy %d not marked Shared", i)
		}
	}
	if nw.Duplicated != 1 || nw.Delivered != 2 || nw.Sent != 1 {
		t.Fatalf("duplicated=%d delivered=%d sent=%d", nw.Duplicated, nw.Delivered, nw.Sent)
	}
}

func TestInjectedDelayPostponesArrival(t *testing.T) {
	run := func(delay sim.Duration) sim.Time {
		e := sim.NewEngine(1)
		nw := New(e, 2, testParams())
		if delay > 0 {
			nw.SetInjector(fnInjector(func(uint64, sim.Time, *Delivery) PacketFault {
				return PacketFault{Delay: delay}
			}))
		}
		var arrival sim.Time
		e.At(0, func() { nw.Send(0, 1, 1000, nil) })
		e.Spawn("rx", func(p *sim.Proc) {
			nw.Inbox(1).Pop(p)
			arrival = p.Now()
		})
		e.MustRun()
		return arrival
	}
	base := run(0)
	delayed := run(3 * sim.Microsecond)
	if want := base.Add(3 * sim.Microsecond); delayed != want {
		t.Fatalf("delayed arrival = %v, want %v (base %v)", delayed, want, base)
	}
}
