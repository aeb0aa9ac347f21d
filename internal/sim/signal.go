package sim

// waiter is one process parked on a Signal. Each Proc embeds its own (a
// process waits on at most one Signal at a time), so parking allocates
// nothing. The woken/timedOut flags guarantee exactly one wake per wait
// even when a signal and a timeout land on the same instant. A waiter is
// in its Signal's FIFO exactly while it is waiting and not yet woken.
type waiter struct {
	p        *Proc
	sig      *Signal
	woken    bool
	timedOut bool
	tm       timer // heap slot of the timeout event, for cancellation
}

// step is the deadline event of WaitTimeout (see Engine.atTimeout).
func (w *waiter) step(int) {
	if w.woken {
		// A same-instant Signal dispatched first (it marked w woken and
		// scheduled the wake); the deadline loses the tie.
		return
	}
	w.woken = true
	w.timedOut = true
	w.sig.remove(w)
	w.p.scheduleWake()
}

// Signal is a broadcast/wake-one condition. Waiters park until another
// process (or an engine event) signals. Signals carry no data; pair them
// with shared state guarded by the run-to-block execution model (no locks
// are needed: only one process runs at a time).
//
// The waiter FIFO lives in waiters[head:]. Draining it rewinds head to the
// front, and a full backing array is compacted before it grows, so the
// FIFO's capacity stays bounded by its peak occupancy.
type Signal struct {
	eng     *Engine
	waiters []*waiter
	head    int
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// enqueue appends p's waiter to the FIFO and returns it.
func (s *Signal) enqueue(p *Proc) *waiter {
	w := &p.w
	w.sig, w.woken, w.timedOut = s, false, false
	if s.head > 0 && len(s.waiters) == cap(s.waiters) {
		n := copy(s.waiters, s.waiters[s.head:])
		clear(s.waiters[n:])
		s.waiters = s.waiters[:n]
		s.head = 0
	}
	s.waiters = append(s.waiters, w)
	return w
}

// Wait parks the calling process until the next Signal or Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.enqueue(p)
	p.parkBlocked()
}

// WaitTimeout parks the calling process until the next Signal/Broadcast or
// until d elapses. It reports false if the wait timed out. A wait that is
// signalled in time cancels its deadline event outright, so abandoned
// timeouts never accumulate in the heap (a simulation full of generous
// deadlines — every blocking VIPL call arms one — would otherwise carry
// thousands of dead events and run on to the last deadline).
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	w := s.enqueue(p)
	p.eng.atTimeout(p.eng.now.Add(d), w)
	p.parkBlocked()
	if !w.timedOut {
		p.eng.cancelTimer(&w.tm)
	}
	return !w.timedOut
}

// remove deletes w from the FIFO, preserving the order of the others.
func (s *Signal) remove(w *waiter) {
	for i := s.head; i < len(s.waiters); i++ {
		if s.waiters[i] == w {
			copy(s.waiters[i:], s.waiters[i+1:])
			s.waiters[len(s.waiters)-1] = nil
			s.waiters = s.waiters[:len(s.waiters)-1]
			s.rewind()
			return
		}
	}
}

// rewind resets an empty FIFO to the front of its backing array.
func (s *Signal) rewind() {
	if s.head == len(s.waiters) {
		s.waiters = s.waiters[:0]
		s.head = 0
	}
}

// Signal wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (s *Signal) Signal() bool {
	if s.head == len(s.waiters) {
		return false
	}
	w := s.waiters[s.head]
	s.waiters[s.head] = nil
	s.head++
	s.rewind()
	w.woken = true
	w.p.scheduleWake()
	return true
}

// Broadcast wakes every waiting process in FIFO order.
func (s *Signal) Broadcast() {
	for i := s.head; i < len(s.waiters); i++ {
		w := s.waiters[i]
		s.waiters[i] = nil
		w.woken = true
		w.p.scheduleWake()
	}
	s.waiters = s.waiters[:0]
	s.head = 0
}
