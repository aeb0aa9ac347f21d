package nicsim

import "fmt"

// Fragment is one MTU-sized piece of a message as it crosses the wire.
type Fragment struct {
	Offset int  // byte offset of this fragment within the message
	Size   int  // payload bytes in this fragment
	Index  int  // fragment number, 0-based
	Last   bool // true for the final fragment
}

// Fragments splits a message of n bytes into wire fragments of at most mtu
// bytes. A zero-length message still produces one (empty) fragment, because
// VIA permits zero-byte sends and the receiver must still consume a
// descriptor.
func Fragments(n, mtu int) []Fragment {
	if n < 0 {
		panic(fmt.Sprintf("nicsim: negative message size %d", n))
	}
	if mtu <= 0 {
		panic(fmt.Sprintf("nicsim: non-positive MTU %d", mtu))
	}
	if n == 0 {
		return []Fragment{{Offset: 0, Size: 0, Index: 0, Last: true}}
	}
	var frags []Fragment
	for off, i := 0, 0; off < n; i++ {
		size := mtu
		if n-off < size {
			size = n - off
		}
		frags = append(frags, Fragment{Offset: off, Size: size, Index: i})
		off += size
	}
	frags[len(frags)-1].Last = true
	return frags
}

// FragmentAt returns Fragments(n, mtu)[i] without allocating.
func FragmentAt(n, mtu, i int) Fragment {
	if n < 0 {
		panic(fmt.Sprintf("nicsim: negative message size %d", n))
	}
	count := NumFragments(n, mtu)
	if i < 0 || i >= count {
		panic(fmt.Sprintf("nicsim: fragment %d of %d", i, count))
	}
	off := i * mtu
	return Fragment{Offset: off, Size: min(mtu, n-off), Index: i, Last: i == count-1}
}

// NumFragments reports how many fragments Fragments would return, without
// allocating.
func NumFragments(n, mtu int) int {
	if mtu <= 0 {
		panic(fmt.Sprintf("nicsim: non-positive MTU %d", mtu))
	}
	if n <= 0 {
		return 1
	}
	return (n + mtu - 1) / mtu
}

// Reassembler tracks the arrival of in-flight messages' fragments on a
// single VI channel. SAN fabrics deliver in order on a connection, so the
// reassembler only has to detect gaps (lost fragments), not reorder.
// Messages are distinguished by a per-channel message id, so a message
// whose tail fragments were lost is abandoned as soon as the next message
// starts, instead of poisoning it.
type Reassembler struct {
	msgID    uint64
	total    int // expected message size (from the fragment headers)
	received int // bytes received so far
	nextIdx  int // next expected fragment index
	active   bool
	broken   bool // a gap was detected; remaining fragments are discarded

	// Abandoned counts messages dropped because a fragment was lost.
	Abandoned uint64
}

// Active reports whether a message is partially assembled.
func (r *Reassembler) Active() bool { return r.active }

// Received reports the bytes accepted for the current message.
func (r *Reassembler) Received() int { return r.received }

// Accept processes one arriving fragment of message msgID, whose total
// size is msgTotal bytes. It returns done=true when the message is
// complete and ok=false if the fragment was discarded (a gap was detected
// in this message).
func (r *Reassembler) Accept(msgID uint64, f Fragment, msgTotal int) (done, ok bool) {
	if r.active && msgID != r.msgID {
		// The previous message never finished: its tail was lost.
		r.Abandoned++
		r.reset()
	}
	if !r.active {
		if f.Index != 0 {
			// Head of this message was lost; discard the rest as they come.
			r.active = true
			r.broken = true
			r.msgID = msgID
		} else {
			r.active = true
			r.broken = false
			r.msgID = msgID
			r.total = msgTotal
			r.received = 0
			r.nextIdx = 0
		}
	}
	if r.broken {
		if f.Last {
			r.Abandoned++
			r.reset()
		}
		return false, false
	}
	if f.Index != r.nextIdx || msgTotal != r.total {
		r.broken = true
		if f.Last {
			r.Abandoned++
			r.reset()
		}
		return false, false
	}
	r.nextIdx++
	r.received += f.Size
	if f.Last {
		r.reset()
		return true, true
	}
	return false, true
}

// Abort drops any partial state (connection teardown).
func (r *Reassembler) Abort() { r.reset() }

func (r *Reassembler) reset() {
	r.active = false
	r.broken = false
	r.total = 0
	r.received = 0
	r.nextIdx = 0
}
