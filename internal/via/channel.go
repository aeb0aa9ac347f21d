package via

import "fmt"

// The message channel under the programming-model layers: a receive ring
// that knows which slot each completed receive landed in, one
// synchronous send, and one completion-status check. The layers keep
// their wire formats and protocols (credits, windows, rendezvous, the
// lock manager) and call these for the VIPL mechanics; each makes the
// same calls, in the same order, as the code it replaced.

// StatusError is the error for a descriptor that completed with a status
// other than StatusSuccess.
type StatusError struct {
	Status Status
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("via: descriptor completed with %v", e.Status)
}

// CheckOK checks the result of a completion wait: it returns err if the
// wait failed, a *StatusError if d completed unsuccessfully, and nil
// otherwise.
func CheckOK(d *Descriptor, err error) error {
	if err != nil {
		return err
	}
	if d.Status != StatusSuccess {
		return &StatusError{Status: d.Status}
	}
	return nil
}

// PostSendPoll posts d, spins for the head send completion (SendWaitPoll)
// and checks it: the synchronous send of a VI that keeps one send in
// flight, so the completion it takes is d's.
func (v *Vi) PostSendPoll(ctx *Ctx, d *Descriptor) error {
	if err := v.PostSend(ctx, d); err != nil {
		return err
	}
	return CheckOK(v.SendWaitPoll(ctx))
}

// Ring is a set of registered receive slots on one VI together with the
// indices of the posted slots in posting order. A VI completes receives
// in posting order, so the oldest posted slot is where the next completed
// receive landed.
type Ring struct {
	vi    *Vi
	slots []Reg
	// posted is a circular FIFO of slot indices: n of them from head on.
	posted  []int
	head, n int
}

// PostRing allocates slots size-byte buffers and pre-posts each as a
// whole-buffer receive on v, slot by slot (allocate, register, post), so
// the k-th message to arrive lands in slot k.
func (v *Vi) PostRing(ctx *Ctx, slots, size int) (*Ring, error) {
	r := &Ring{vi: v, slots: make([]Reg, slots), posted: make([]int, slots)}
	for i := range r.slots {
		reg, err := v.nic.AllocReg(ctx, size)
		if err != nil {
			return nil, err
		}
		r.slots[i] = reg
		if err := r.Repost(ctx, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Slot returns slot i's buffer and handle.
func (r *Ring) Slot(i int) Reg { return r.slots[i] }

// Next spins for the next completed receive on the ring's VI
// (RecvWaitPoll) and returns the slot it landed in; see Landed.
func (r *Ring) Next(ctx *Ctx) (int, error) {
	d, err := r.vi.RecvWaitPoll(ctx)
	if err != nil {
		return 0, err
	}
	return r.Landed(d)
}

// Landed takes the oldest posted slot for a receive d the caller has
// already dequeued from the ring's VI and returns it. A receive that
// completed unsuccessfully also takes its slot, which is then not
// re-posted; Landed returns its *StatusError.
func (r *Ring) Landed(d *Descriptor) (int, error) {
	i := r.posted[r.head]
	r.head = (r.head + 1) % len(r.posted)
	r.n--
	return i, CheckOK(d, nil)
}

// Repost posts slot i again as a whole-buffer receive. The slot must not
// be posted already.
func (r *Ring) Repost(ctx *Ctx, i int) error {
	if r.n == len(r.posted) {
		panic(fmt.Sprintf("via: ring slot %d reposted while every slot is posted", i))
	}
	s := r.slots[i]
	if err := r.vi.PostRecv(ctx, SimpleRecv(s.Buf, s.H, s.Buf.Len())); err != nil {
		return err
	}
	r.posted[(r.head+r.n)%len(r.posted)] = i
	r.n++
	return nil
}
