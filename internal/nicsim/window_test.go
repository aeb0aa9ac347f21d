package nicsim

import (
	"testing"
	"testing/quick"

	"vibe/internal/sim"
)

func TestWindowAddAck(t *testing.T) {
	var w Window
	a := w.Add("a", 10)
	b := w.Add("b", 20)
	c := w.Add("c", 30)
	if a.Seq != 0 || b.Seq != 1 || c.Seq != 2 {
		t.Fatalf("seqs: %d %d %d", a.Seq, b.Seq, c.Seq)
	}
	if w.Outstanding() != 3 || w.NextSeq() != 3 {
		t.Fatalf("outstanding=%d next=%d", w.Outstanding(), w.NextSeq())
	}
	acked := w.Ack(1)
	if len(acked) != 2 || acked[0].Item.(string) != "a" || acked[1].Item.(string) != "b" {
		t.Fatalf("acked = %v", acked)
	}
	if w.Outstanding() != 1 || w.Oldest().Seq != 2 {
		t.Fatalf("after ack: outstanding=%d oldest=%v", w.Outstanding(), w.Oldest())
	}
	if w.Acked != 2 {
		t.Fatalf("Acked = %d", w.Acked)
	}
	if w.String() == "" {
		t.Fatal("String")
	}
	w.Reset()
	if w.Outstanding() != 0 || w.Oldest() != nil {
		t.Fatal("Reset left packets pending")
	}
}

func TestWindowAckIdempotent(t *testing.T) {
	var w Window
	w.Add("a", 0)
	if got := w.Ack(0); len(got) != 1 {
		t.Fatal("first ack")
	}
	if got := w.Ack(0); len(got) != 0 {
		t.Fatal("duplicate ack removed something")
	}
	if w.Oldest() != nil {
		t.Fatal("Oldest on empty window")
	}
}

func TestRecvSeqInOrder(t *testing.T) {
	var r RecvSeq
	if _, ok := r.CumAck(); ok {
		t.Fatal("CumAck before any packet")
	}
	for seq := uint64(0); seq < 4; seq++ {
		accept, dup := r.Accept(seq)
		if !accept || dup {
			t.Fatalf("seq %d: accept=%v dup=%v", seq, accept, dup)
		}
	}
	if ack, ok := r.CumAck(); !ok || ack != 3 {
		t.Fatalf("CumAck = %d,%v", ack, ok)
	}
}

func TestRecvSeqDuplicateAndGap(t *testing.T) {
	var r RecvSeq
	r.Accept(0)
	if accept, dup := r.Accept(0); accept || !dup {
		t.Fatalf("duplicate: accept=%v dup=%v", accept, dup)
	}
	if accept, dup := r.Accept(5); accept || dup {
		t.Fatalf("gap: accept=%v dup=%v", accept, dup)
	}
	if r.Duplicates != 1 || r.Gaps != 1 || r.Expected() != 1 {
		t.Fatalf("dups=%d gaps=%d expected=%d", r.Duplicates, r.Gaps, r.Expected())
	}
}

// Property: after any interleaving of sends and cumulative acks, the
// window holds exactly the sequence numbers greater than the highest ack.
func TestWindowInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		var w Window
		highAck := -1
		for _, op := range ops {
			if op%2 == 0 {
				w.Add(int(op), 0)
			} else if w.NextSeq() > 0 {
				ack := uint64(op) % w.NextSeq()
				w.Ack(ack)
				if int(ack) > highAck {
					highAck = int(ack)
				}
			}
		}
		want := int(w.NextSeq()) - (highAck + 1)
		if want < 0 {
			want = 0
		}
		if w.Outstanding() != want {
			return false
		}
		// Pending entries are in strictly increasing seq order, all above
		// highAck.
		prev := -1
		for _, p := range w.Unacked() {
			if int(p.Seq) <= highAck || int(p.Seq) <= prev {
				return false
			}
			prev = int(p.Seq)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a receiver fed any sequence stream accepts exactly the strictly
// consecutive prefix-extension packets.
func TestRecvSeqProperty(t *testing.T) {
	f := func(seqs []uint8) bool {
		var r RecvSeq
		expected := uint64(0)
		for _, s := range seqs {
			seq := uint64(s % 8)
			accept, dup := r.Accept(seq)
			switch {
			case seq == expected:
				if !accept || dup {
					return false
				}
				expected++
			case seq < expected:
				if accept || !dup {
					return false
				}
			default:
				if accept || dup {
					return false
				}
			}
		}
		return r.Expected() == expected
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnackedReturnsCopy pins the aliasing fix: Unacked used to return the
// window's internal slice, whose backing array Ack re-slices in place —
// mutating the returned slice (or just holding it across an Ack) corrupted
// go-back-N state. The returned slice must be detached.
func TestUnackedReturnsCopy(t *testing.T) {
	var w Window
	for i := 0; i < 4; i++ {
		w.Add(i, sim.Time(i))
	}
	snap := w.Unacked()

	// Clobbering the snapshot must not reach the window.
	snap[0] = nil
	snap[1] = &Pending{Seq: 999}
	if old := w.Oldest(); old == nil || old.Seq != 0 {
		t.Fatalf("oldest corrupted by writing through Unacked: %v", old)
	}

	// Ack shrinks the window by re-slicing; the snapshot keeps the old
	// contents rather than seeing acked entries mutate under it.
	snap = w.Unacked()
	w.Ack(1)
	if len(snap) != 4 || snap[0].Seq != 0 || snap[3].Seq != 3 {
		t.Fatalf("snapshot changed by Ack: %v", snap)
	}
	if w.Outstanding() != 2 || w.Oldest().Seq != 2 {
		t.Fatalf("window wrong after Ack: %v", w.Unacked())
	}

	// After go-back-N resend bookkeeping through ForEachUnacked, the
	// window still holds exactly the unacked tail, in order.
	var seen []uint64
	w.ForEachUnacked(func(p *Pending) bool {
		seen = append(seen, p.Seq)
		return true
	})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("ForEachUnacked order = %v, want [2 3]", seen)
	}
}

// TestForEachUnackedEarlyExit: returning false stops iteration (the paced
// retransmission burst relies on this).
func TestForEachUnackedEarlyExit(t *testing.T) {
	var w Window
	for i := 0; i < 5; i++ {
		w.Add(i, 0)
	}
	calls := 0
	w.ForEachUnacked(func(p *Pending) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}
