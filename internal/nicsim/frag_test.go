package nicsim

import (
	"testing"
	"testing/quick"
)

func TestFragmentsExact(t *testing.T) {
	frags := Fragments(10, 4)
	want := []Fragment{
		{Offset: 0, Size: 4, Index: 0},
		{Offset: 4, Size: 4, Index: 1},
		{Offset: 8, Size: 2, Index: 2, Last: true},
	}
	if len(frags) != len(want) {
		t.Fatalf("got %d fragments", len(frags))
	}
	for i := range want {
		if frags[i] != want[i] {
			t.Errorf("frag %d = %+v, want %+v", i, frags[i], want[i])
		}
	}
}

func TestFragmentsZeroLengthMessage(t *testing.T) {
	frags := Fragments(0, 1500)
	if len(frags) != 1 || !frags[0].Last || frags[0].Size != 0 {
		t.Fatalf("zero-length: %+v", frags)
	}
	if NumFragments(0, 1500) != 1 {
		t.Fatal("NumFragments(0) != 1")
	}
}

func TestFragmentsSingle(t *testing.T) {
	frags := Fragments(1500, 1500)
	if len(frags) != 1 || !frags[0].Last || frags[0].Size != 1500 {
		t.Fatalf("exact-MTU: %+v", frags)
	}
}

func TestFragmentsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Fragments(-1, 10) },
		func() { Fragments(10, 0) },
		func() { NumFragments(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// FragmentAt(n, mtu, i) is Fragments(n, mtu)[i] for every i, around the
// MTU boundaries, and it does not allocate.
func TestFragmentAtMatchesFragments(t *testing.T) {
	for _, mtu := range []int{1, 7, 1500, 4096} {
		for _, n := range []int{0, 1, mtu - 1, mtu, mtu + 1, 3 * mtu, 3*mtu + 1} {
			frags := Fragments(n, mtu)
			if got := NumFragments(n, mtu); got != len(frags) {
				t.Errorf("NumFragments(%d, %d) = %d, want %d", n, mtu, got, len(frags))
			}
			for i, want := range frags {
				if got := FragmentAt(n, mtu, i); got != want {
					t.Errorf("FragmentAt(%d, %d, %d) = %+v, want %+v", n, mtu, i, got, want)
				}
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { FragmentAt(10000, 1500, 3) }); a != 0 {
		t.Errorf("FragmentAt allocates %v times per call", a)
	}
	for _, f := range []func(){
		func() { FragmentAt(10, 4, 3) },
		func() { FragmentAt(10, 4, -1) },
		func() { FragmentAt(-1, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: fragments tile the message exactly, in order, sizes within
// MTU, and NumFragments agrees.
func TestFragmentsTileMessage(t *testing.T) {
	f := func(n uint16, mtu uint16) bool {
		size := int(n)
		m := int(mtu%4096) + 1
		frags := Fragments(size, m)
		if len(frags) != NumFragments(size, m) {
			return false
		}
		off := 0
		for i, fr := range frags {
			if fr.Index != i || fr.Offset != off || fr.Size < 0 || fr.Size > m {
				return false
			}
			if fr.Last != (i == len(frags)-1) {
				return false
			}
			off += fr.Size
		}
		if size == 0 {
			return off == 0
		}
		// All but the last fragment are full.
		for _, fr := range frags[:len(frags)-1] {
			if fr.Size != m {
				return false
			}
		}
		return off == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerHappyPath(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	for i, f := range frags {
		done, ok := r.Accept(1, f, 10000)
		if !ok {
			t.Fatalf("fragment %d rejected", i)
		}
		if done != f.Last {
			t.Fatalf("fragment %d done=%v", i, done)
		}
	}
	if r.Active() {
		t.Fatal("still active after completion")
	}
}

func TestReassemblerMidGapDiscardsMessage(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096) // 3 fragments
	r.Accept(1, frags[0], 10000)
	// frags[1] lost.
	done, ok := r.Accept(1, frags[2], 10000)
	if done || ok {
		t.Fatal("gapped message completed")
	}
	if r.Abandoned != 1 {
		t.Fatalf("abandoned = %d", r.Abandoned)
	}
	// Next message proceeds cleanly.
	done, ok = r.Accept(2, Fragments(100, 4096)[0], 100)
	if !done || !ok {
		t.Fatal("next message blocked by previous gap")
	}
}

func TestReassemblerLostTailAbandonedOnNextMessage(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	r.Accept(1, frags[0], 10000)
	r.Accept(1, frags[1], 10000)
	// frags[2] (the tail) lost; message 2 begins.
	done, ok := r.Accept(2, Fragments(50, 4096)[0], 50)
	if !done || !ok {
		t.Fatal("new message not accepted after lost tail")
	}
	if r.Abandoned != 1 {
		t.Fatalf("abandoned = %d", r.Abandoned)
	}
}

func TestReassemblerLostHeadDiscardsRest(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	// Head lost; middle and tail arrive.
	if done, ok := r.Accept(1, frags[1], 10000); done || ok {
		t.Fatal("accepted headless fragment")
	}
	if done, ok := r.Accept(1, frags[2], 10000); done || ok {
		t.Fatal("completed headless message")
	}
	if r.Abandoned != 1 {
		t.Fatalf("abandoned = %d", r.Abandoned)
	}
	if r.Active() {
		t.Fatal("active after abandoned tail")
	}
}

func TestReassemblerAbort(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	r.Accept(1, frags[0], 10000)
	r.Abort()
	if r.Active() || r.Received() != 0 {
		t.Fatal("abort incomplete")
	}
}
