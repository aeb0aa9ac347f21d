package nicsim

import (
	"fmt"

	"vibe/internal/sim"
)

// Pending is an unacknowledged wire packet held for possible
// retransmission.
type Pending struct {
	Seq     uint64
	SentAt  sim.Time
	Retries int
	Item    interface{}
}

// Window is the sender half of the go-back-N reliability protocol the
// reliable VIA modes run between NICs: packets carry consecutive sequence
// numbers per connection, the receiver returns cumulative acks, and
// anything unacked past a timeout is retransmitted in order.
type Window struct {
	nextSeq uint64
	pending []*Pending // ordered by Seq

	// Counters.
	Acked       uint64
	Retransmits uint64
}

// NextSeq returns the sequence number the next Add will assign.
func (w *Window) NextSeq() uint64 { return w.nextSeq }

// Add registers a newly transmitted packet and returns its record with the
// assigned sequence number.
func (w *Window) Add(item interface{}, at sim.Time) *Pending {
	p := &Pending{Seq: w.nextSeq, SentAt: at, Item: item}
	w.nextSeq++
	w.pending = append(w.pending, p)
	return p
}

// Ack processes a cumulative acknowledgment: every pending packet with
// Seq <= cumSeq is removed and returned.
func (w *Window) Ack(cumSeq uint64) []*Pending {
	i := 0
	for i < len(w.pending) && w.pending[i].Seq <= cumSeq {
		i++
	}
	acked := w.pending[:i:i]
	w.pending = w.pending[i:]
	w.Acked += uint64(len(acked))
	return acked
}

// Outstanding reports the number of unacked packets.
func (w *Window) Outstanding() int { return len(w.pending) }

// Oldest returns the longest-unacked packet, or nil.
func (w *Window) Oldest() *Pending {
	if len(w.pending) == 0 {
		return nil
	}
	return w.pending[0]
}

// ForEachUnacked calls fn for each pending packet in sequence order until
// fn returns false. It is the allocation-free iteration the retransmission
// paths use; fn must not call methods that mutate the window.
func (w *Window) ForEachUnacked(fn func(*Pending) bool) {
	for _, p := range w.pending {
		if !fn(p) {
			return
		}
	}
}

// Reset drops all pending state (connection teardown).
func (w *Window) Reset() { w.pending = nil }

func (w *Window) String() string {
	return fmt.Sprintf("window{next=%d outstanding=%d}", w.nextSeq, len(w.pending))
}

// RecvSeq is the receiver half of the reliability protocol: it accepts
// packets strictly in order and produces cumulative acks.
type RecvSeq struct {
	expected uint64

	Duplicates uint64
	Gaps       uint64
}

// Accept classifies an arriving sequence number. accept=true means the
// packet is new and in order and should be processed; dup=true means it
// was already processed (the ack was probably lost) and should be re-acked
// but not processed. Both false means a gap: drop and wait for
// retransmission.
func (r *RecvSeq) Accept(seq uint64) (accept, dup bool) {
	switch {
	case seq == r.expected:
		r.expected++
		return true, false
	case seq < r.expected:
		r.Duplicates++
		return false, true
	default:
		r.Gaps++
		return false, false
	}
}

// CumAck returns the cumulative acknowledgment to send: the highest
// in-order sequence received. ok is false if nothing has been received.
func (r *RecvSeq) CumAck() (seq uint64, ok bool) {
	if r.expected == 0 {
		return 0, false
	}
	return r.expected - 1, true
}
