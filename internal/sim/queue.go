package sim

// Queue is an unbounded typed FIFO connecting simulated processes. Pushes
// never block; Pop blocks the caller until an item is available. It is the
// workhorse for modeling hardware queues (doorbells, NIC receive rings).
//
// Storage is a rewinding ring: items live in buf[head:], and draining the
// queue rewinds head to the front so steady-state traffic reuses the same
// backing array. Together with the type parameter (no interface{} boxing)
// a warm push/pop cycle does not allocate.
type Queue[T any] struct {
	eng   *Engine
	buf   []T
	head  int
	avail *Signal
	svc   *service[T]
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e, avail: NewSignal(e)}
}

// Push appends v and wakes the consumer if it is idle: the serving
// machine's pump event when one is bound (see Serve), otherwise one
// process waiting in Pop. It may be called from a process or from a raw
// engine event (e.g. a packet-delivery callback).
func (q *Queue[T]) Push(v T) {
	q.buf = append(q.buf, v)
	if q.svc != nil {
		q.svc.notify()
		return
	}
	q.avail.Signal()
}

// take removes and returns the oldest item; the queue must be non-empty.
func (q *Queue[T]) take() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Pop removes and returns the oldest item, parking the caller until one is
// available.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.avail.Wait(p)
	}
	return q.take()
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.take(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }
