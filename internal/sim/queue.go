package sim

// Queue is a FIFO channel-like queue for simulation processes. A capacity
// of zero means unbounded. Get blocks while the queue is empty; Put blocks
// while a bounded queue is full. TryPut never blocks and reports failure on
// a full queue — that is how lossy hardware rings (NIC FIFOs, switch ports)
// are modelled.
type Queue[T any] struct {
	e        *Engine
	items    FIFO[T]
	capacity int
	notEmpty *Cond
	notFull  *Cond
	dropped  uint64
}

// NewQueue returns a queue bound to engine e. capacity <= 0 means
// unbounded.
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{
		e:        e,
		capacity: capacity,
		notEmpty: NewCond(e),
		notFull:  NewCond(e),
	}
}

// SetName names the queue's internal conds for wake diagnostics.
func (q *Queue[T]) SetName(name string) {
	q.notEmpty.name = name + ".notEmpty"
	q.notFull.name = name + ".notFull"
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Cap reports the capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Dropped reports how many TryPut calls failed because the queue was full.
func (q *Queue[T]) Dropped() uint64 { return q.dropped }

func (q *Queue[T]) full() bool { return q.capacity > 0 && q.items.Len() >= q.capacity }

// TryPut appends v if there is room and reports whether it did. On failure
// the item is counted as dropped.
func (q *Queue[T]) TryPut(v T) bool {
	if q.full() {
		q.dropped++
		return false
	}
	q.items.Push(v)
	q.notEmpty.Signal()
	return true
}

// Put appends v, blocking the calling process while the queue is full.
func (q *Queue[T]) Put(p *Process, v T) {
	q.notFull.WaitFor(p, func() bool { return !q.full() })
	q.items.Push(v)
	q.notEmpty.Signal()
}

// PollPut is the tasklet-tier Put: it appends v if there is room;
// otherwise it registers w for a wake when space frees up and reports
// false, in which case the caller must retry the same item when woken.
// Unlike TryPut, a failed PollPut does not count the item as dropped —
// the item is deferred, not lost.
func (q *Queue[T]) PollPut(w Waiter, v T) bool {
	if q.full() {
		q.notFull.Await(w)
		return false
	}
	q.items.Push(v)
	q.notEmpty.Signal()
	return true
}

// TryGet removes and returns the head item without blocking. ok is false if
// the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if v, ok = q.items.Pop(); ok {
		q.notFull.Signal()
	}
	return v, ok
}

// Get removes and returns the head item, blocking the calling process while
// the queue is empty.
func (q *Queue[T]) Get(p *Process) T {
	q.notEmpty.WaitFor(p, func() bool { return q.items.Len() > 0 })
	v, _ := q.TryGet()
	return v
}

// PollGet is the tasklet-tier Get: it removes and returns the head item
// if there is one; otherwise it registers w for a wake when an item
// arrives and reports false.
func (q *Queue[T]) PollGet(w Waiter) (v T, ok bool) {
	if q.items.Len() == 0 {
		q.notEmpty.Await(w)
		return v, false
	}
	v, _ = q.TryGet()
	return v, true
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) { return q.items.Peek() }

// FIFO is a first-in first-out slice with a head index. Taking from the
// front advances the index instead of reslicing, so the consumed space
// stays in the backing array; an append that would grow the array first
// compacts that space away when it is at least half the slice. A FIFO
// in steady state therefore stops reallocating, at amortized O(1) per
// item. The zero value is an empty FIFO.
type FIFO[T any] struct {
	items []T
	head  int // items[head:] are queued
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if len(f.items) == cap(f.items) && f.head > 0 && 2*f.head >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, v)
}

// Peek returns the head item without removing it.
func (f *FIFO[T]) Peek() (v T, ok bool) {
	if f.Len() == 0 {
		return v, false
	}
	return f.items[f.head], true
}

// Pop removes and returns the head item; ok is false if the FIFO is
// empty.
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if v, ok = f.Peek(); ok {
		f.Discard(1)
	}
	return v, ok
}

// At returns the i-th queued item, counting from the head at 0. The
// pointer is valid until the next Push or Discard.
func (f *FIFO[T]) At(i int) *T {
	if i < 0 || i >= f.Len() {
		panic("sim: FIFO index out of range")
	}
	return &f.items[f.head+i]
}

// Discard removes the n head items. Their slots are zeroed, so the FIFO
// keeps no reference to a removed item.
func (f *FIFO[T]) Discard(n int) {
	if n < 0 || n > f.Len() {
		panic("sim: FIFO discard out of range")
	}
	clear(f.items[f.head : f.head+n])
	f.head += n
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	}
}
