package fabric

import (
	"testing"

	"vibe/internal/sim"
)

// testParams: 1 Gb/s, 1us links, 500ns switch, no framing overhead so the
// arithmetic below is exact.
func testParams() Params {
	return Params{
		Name:          "test",
		BandwidthBps:  1e9,
		LinkLatency:   sim.Microsecond,
		SwitchLatency: 500 * sim.Nanosecond,
	}
}

func TestSerializationTime(t *testing.T) {
	p := testParams()
	// 1000 bytes at 1 Gb/s = 8000 ns.
	if got := p.SerializationTime(1000); got != 8000 {
		t.Fatalf("ser = %v, want 8000ns", got)
	}
	p.FrameOverhead = 50
	if got := p.SerializationTime(1000); got != 8400 {
		t.Fatalf("ser with overhead = %v, want 8400ns", got)
	}
}

func TestEndToEndDeliveryTime(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	var arrival sim.Time
	var got Delivery
	e.At(0, func() {
		txDone := nw.Send(0, 1, 1000, "hello")
		// Source serialization of 1000B = 8000ns.
		if txDone != 8000 {
			t.Errorf("txDone = %v, want 8000ns", txDone)
		}
	})
	e.Spawn("rx", func(p *sim.Proc) {
		got = *nw.Inbox(1).Pop(p)
		arrival = p.Now()
	})
	e.MustRun()
	// 8000 (ser up) + 1000 (link) + 500 (switch) + 8000 (ser down) + 1000
	// (link) = 18500ns.
	if arrival != 18500 {
		t.Fatalf("arrival = %v, want 18500ns", arrival)
	}
	if got.Payload.(string) != "hello" || got.Src != 0 || got.Dst != 1 || got.Size != 1000 {
		t.Fatalf("delivery = %+v", got)
	}
}

func TestBackToBackPacketsSerializeOnUplink(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	var arrivals []sim.Time
	e.At(0, func() {
		nw.Send(0, 1, 1000, 1)
		nw.Send(0, 1, 1000, 2)
	})
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nw.Inbox(1).Pop(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	e.MustRun()
	// Second packet is pipelined behind the first: it leaves the source at
	// 16000, and the downlink is free when it gets there, so arrivals are
	// spaced by exactly one serialization time.
	if arrivals[0] != 18500 || arrivals[1] != 26500 {
		t.Fatalf("arrivals = %v, want [18500ns 26500ns]", arrivals)
	}
}

func TestDistinctSourcesContendOnDownlink(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 3, testParams())
	var arrivals []sim.Time
	e.At(0, func() {
		nw.Send(0, 2, 1000, "a")
		nw.Send(1, 2, 1000, "b")
	})
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nw.Inbox(2).Pop(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	e.MustRun()
	// Both arrive at the switch at 9500; the shared downlink serializes
	// them: first done at 17500(+1000 link), second at 25500(+1000).
	if arrivals[0] != 18500 || arrivals[1] != 26500 {
		t.Fatalf("arrivals = %v, want [18500ns 26500ns]", arrivals)
	}
}

func TestRandomDropRateIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		e := sim.NewEngine(seed)
		p := testParams()
		p.DropRate = 0.5
		nw := New(e, 2, p)
		e.At(0, func() {
			for i := 0; i < 100; i++ {
				nw.Send(0, 1, 10, i)
			}
		})
		// No receiver needed: Push never blocks, and unread inbox items do
		// not count as a deadlock.
		e.MustRun()
		return nw.Dropped
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different drops: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("droprate 0.5 dropped %d of 100", a)
	}
	c := run(8)
	// Different seeds will almost surely differ; not asserting, just
	// exercising the path.
	_ = c
}

func TestBytesSentCounter(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	e.At(0, func() {
		nw.Send(0, 1, 300, nil)
		nw.Send(0, 1, 200, nil)
	})
	e.MustRun()
	if nw.BytesSent != 500 {
		t.Fatalf("BytesSent = %d", nw.BytesSent)
	}
}

func TestBadNodePanics(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad node id")
		}
	}()
	nw.Inbox(5)
}

func TestDeliveryRecycling(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	var first, second *Delivery
	e.At(0, func() { nw.Send(0, 1, 100, "one") })
	e.At(1000000, func() { nw.Send(0, 1, 100, "two") })
	e.Spawn("rx", func(p *sim.Proc) {
		first = nw.Inbox(1).Pop(p)
		if first.Payload.(string) != "one" {
			t.Errorf("first payload = %v", first.Payload)
		}
		nw.Recycle(first)
		second = nw.Inbox(1).Pop(p)
		if second.Payload.(string) != "two" {
			t.Errorf("second payload = %v", second.Payload)
		}
	})
	e.MustRun()
	if first != second {
		t.Fatal("recycled delivery was not reused")
	}
}

func TestSelfSend(t *testing.T) {
	// Loopback (a process sending to a VI on the same node) is NIC-local:
	// the frame serializes once through the transmit path and arrives the
	// instant serialization ends — no switch hop, no link propagation.
	e := sim.NewEngine(1)
	nw := New(e, 1, testParams())
	var arrival sim.Time
	e.At(0, func() {
		if txDone := nw.Send(0, 0, 1000, "loop"); txDone != 8000 {
			t.Errorf("txDone = %v, want 8000ns", txDone)
		}
	})
	e.Spawn("rx", func(p *sim.Proc) {
		d := nw.Inbox(0).Pop(p)
		arrival = p.Now()
		if d.Payload.(string) != "loop" || d.Src != 0 || d.Dst != 0 {
			t.Errorf("delivery = %+v", d)
		}
	})
	e.MustRun()
	// One serialization (8000ns), nothing else: the packet never crosses
	// a link or a switch.
	if arrival != 8000 {
		t.Fatalf("arrival = %v, want 8000ns", arrival)
	}
	if nw.PropTime != 0 {
		t.Fatalf("loopback accrued propagation time %v", nw.PropTime)
	}
	if nw.SerTime != 8000 {
		t.Fatalf("SerTime = %v, want 8000ns", nw.SerTime)
	}
	checkConservation(t, nw)
}

// checkConservation asserts the per-port accounting identity: summed over
// every link, Delivered = Sent - Dropped + Duplicated, and the fabric
// totals agree with the per-port counters.
func checkConservation(t *testing.T, nw *Network) {
	t.Helper()
	var tx, rx, drops uint64
	for id := 0; id < nw.Nodes(); id++ {
		ls := nw.LinkStats(NodeID(id))
		tx += ls.TxPackets
		rx += ls.RxPackets
		drops += ls.Dropped
	}
	if tx != nw.Sent || rx != nw.Delivered || drops != nw.Dropped {
		t.Fatalf("per-port totals tx=%d rx=%d drops=%d vs fabric sent=%d delivered=%d dropped=%d",
			tx, rx, drops, nw.Sent, nw.Delivered, nw.Dropped)
	}
	if rx != tx-drops+nw.Duplicated {
		t.Fatalf("conservation violated: delivered %d != sent %d - dropped %d + duplicated %d",
			rx, tx, drops, nw.Duplicated)
	}
}

// corruptInjector corrupts every packet whose index is in the set;
// duplicates every packet whose index is in dup.
type testInjector struct {
	corrupt map[uint64]bool
	dup     map[uint64]int
}

func (ti *testInjector) InjectPacket(index uint64, _ sim.Time, _ *Delivery) PacketFault {
	return PacketFault{Corrupt: ti.corrupt[index], Duplicates: ti.dup[index]}
}

func TestRxCorruptAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	nw.SetInjector(&testInjector{corrupt: map[uint64]bool{1: true}})
	e.At(0, func() {
		nw.Send(0, 1, 100, "clean")
		nw.Send(0, 1, 100, "doomed")
	})
	e.MustRun()
	ls := nw.LinkStats(1)
	if ls.RxPackets != 2 || ls.RxCorrupt != 1 {
		t.Fatalf("rx=%d corrupt=%d, want 2/1", ls.RxPackets, ls.RxCorrupt)
	}
	// Corrupted frames cost wire time (RxPackets includes them); consumed
	// packets reconcile as RxPackets - RxCorrupt.
	if got := ls.RxPackets - ls.RxCorrupt; got != 1 {
		t.Fatalf("consumable packets = %d, want 1", got)
	}
	if nw.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", nw.Corrupted)
	}
	checkConservation(t, nw)
}

func TestConservationUnderDropsAndDuplicates(t *testing.T) {
	e := sim.NewEngine(3)
	p := testParams()
	p.DropRate = 0.3
	nw := New(e, 3, p)
	nw.SetInjector(&testInjector{dup: map[uint64]int{4: 1, 9: 2}})
	e.At(0, func() {
		for i := 0; i < 30; i++ {
			nw.Send(NodeID(i%2), 2, 64, i)
		}
	})
	e.MustRun()
	if nw.Dropped == 0 || nw.Duplicated == 0 {
		t.Fatalf("want both drops (%d) and duplicates (%d) exercised", nw.Dropped, nw.Duplicated)
	}
	checkConservation(t, nw)
}

func TestRecycleSharedNeverRepooled(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	nw.SetInjector(&testInjector{dup: map[uint64]int{0: 1}})
	var got []*Delivery
	e.At(0, func() { nw.Send(0, 1, 100, "dup") })
	e.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, nw.Inbox(1).Pop(p))
		}
	})
	e.MustRun()
	if len(got) != 2 || !got[0].Shared || !got[1].Shared {
		t.Fatalf("deliveries = %+v", got)
	}
	// Recycling an aliased (Shared) delivery must not re-pool it: the
	// other copy still references the same payload, and a re-pooled
	// wrapper would let a fresh packet alias it.
	nw.Recycle(got[0])
	nw.Recycle(got[1])
	if len(nw.delFree) != 0 {
		t.Fatalf("shared deliveries re-pooled: free list %d", len(nw.delFree))
	}
}

func TestDoubleRecyclePanics(t *testing.T) {
	e := sim.NewEngine(1)
	nw := New(e, 2, testParams())
	var d *Delivery
	e.At(0, func() { nw.Send(0, 1, 100, "x") })
	e.Spawn("rx", func(p *sim.Proc) { d = nw.Inbox(1).Pop(p) })
	e.MustRun()
	nw.Recycle(d)
	defer func() {
		if recover() == nil {
			t.Error("no panic on double recycle")
		}
	}()
	nw.Recycle(d)
}
