package sim

import (
	"fmt"
	"strconv"
)

// Priority orders events that are scheduled for the same virtual time.
// Lower values run first. Most model code uses PriorityNormal; interrupt
// delivery uses PriorityHigh so that hardware beats software at equal
// timestamps, matching real machines where the APIC wins the race.
type Priority int32

// Event priorities, lowest runs first at equal timestamps.
const (
	PriorityHigh   Priority = -1
	PriorityNormal Priority = 0
	PriorityLow    Priority = 1
)

// event is one heap-scheduled callback. Event structs are pooled: the
// engine recycles them through a free list so steady-state scheduling
// allocates nothing, and gen tells a live incarnation from a recycled
// one so stale EventHandles are harmless.
type event struct {
	at   Time
	prio Priority
	seq  uint64 // insertion order; final tiebreak for determinism
	fn   func()
	idx  int    // position in the heap; -1 once popped or removed
	gen  uint64 // bumped on every recycle; EventHandles must match it
}

// EventHandle identifies one scheduled event so it can be cancelled.
// The zero EventHandle is valid and inert: Cancel on it is a no-op, so
// holders (timers, protocol state machines) need no armed/disarmed
// bookkeeping of their own.
type EventHandle struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel withdraws the event: it will not run, will not advance the
// virtual clock, and no longer counts as pending. The event is removed
// from the heap in place (sift repair), so cancelled events cost nothing
// at pop time and Pending()/memory stay proportional to live events.
// Cancelling twice, after the event ran, or through a zero handle is a
// no-op.
func (h EventHandle) Cancel() {
	// gen mismatch means the event struct was recycled (it ran, or was
	// cancelled already); idx < 0 catches the event currently executing.
	if h.ev == nil || h.ev.gen != h.gen || h.ev.idx < 0 {
		return
	}
	h.e.heapRemove(h.ev)
	h.e.release(h.ev)
}

// dispatchEntry is a same-time event on the direct-dispatch queue. The
// wake/Yield path — schedule at the current timestamp with normal
// priority — bypasses the heap entirely: entries carry only the sequence
// number needed to merge correctly against heap events, and live in a
// value ring so the hottest scheduling path allocates nothing.
type dispatchEntry struct {
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events []*event // index-tracked min-heap on (at, prio, seq)
	free   []*event // recycled event structs

	// dq is the same-time direct-dispatch FIFO: events at (now,
	// PriorityNormal) in seq order, dq[dqHead:] pending. Its entries
	// always carry the current virtual time — time cannot advance while
	// the queue is non-empty, because anything in it is already runnable.
	dq     []dispatchEntry
	dqHead int

	// home is where a carrier hands the control token back to the Run
	// caller: when the run ends on it, or when its body ends the
	// goroutine with runtime.Goexit.
	home    chan struct{}
	stopped bool
	limit   Time // the current RunUntil's horizon
	rng     *Rand
	// next is the carrier the last event handed control to (a start,
	// sleep-expiry or wake); dispatch resumes it once the event returns.
	next *carrier
	// handoffs counts control transfers between goroutines.
	handoffs uint64

	procs []*Process // registry of live processes, for Live and Shutdown
	idle  []*carrier // carriers whose last body returned, for GoAt to reuse
	// dying flips while Shutdown unwinds parked processes: park resumes
	// into a poison panic instead of returning to the model.
	dying    bool
	fault    any // panic captured from a process, re-raised in Run
	executed uint64
	// spawned numbers processes and tasklets in creation order; the
	// ordinal makes each one's diagnostic name unique.
	spawned uint64
}

// NewEngine returns an engine at virtual time zero with a deterministic
// random source derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		home: make(chan struct{}, 1),
		rng:  NewRand(seed),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed reports how many events have run so far; useful in tests.
func (e *Engine) Executed() uint64 { return e.executed }

// Handoffs reports how many times control has passed between goroutines
// so far: process resumes that were not inline, and the hand back to the
// Run caller. It observes the host cost of a run and is outside every
// digest.
func (e *Engine) Handoffs() uint64 { return e.handoffs }

// Schedule runs fn at virtual time e.Now()+d with normal priority.
func (e *Engine) Schedule(d Duration, fn func()) { e.At(e.now.Add(d), PriorityNormal, fn) }

// At runs fn at absolute virtual time t. Scheduling in the past panics:
// that is always a model bug, and silently clamping it would corrupt
// latency measurements. Events at the current time with normal priority
// take the direct-dispatch queue and never touch the heap.
func (e *Engine) At(t Time, prio Priority, fn func()) {
	if t == e.now && prio == PriorityNormal {
		e.seq++
		e.dq = append(e.dq, dispatchEntry{seq: e.seq, fn: fn})
		return
	}
	e.at(t, prio, fn)
}

// AtCancel is At returning a handle through which the event can be
// withdrawn again — the basis of cancellable timers. Cancellable events
// always go through the heap (the dispatch queue has no removal), so
// prefer At for events that will certainly run.
func (e *Engine) AtCancel(t Time, prio Priority, fn func()) EventHandle {
	ev := e.at(t, prio, fn)
	return EventHandle{e: e, ev: ev, gen: ev.gen}
}

func (e *Engine) at(t Time, prio Priority, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.prio, ev.seq, ev.fn = t, prio, e.seq, fn
	e.heapPush(ev)
	return ev
}

// alloc takes an event struct from the free list, or mints one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles an executed or cancelled event. Bumping gen here
// invalidates every outstanding handle to this incarnation.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.idx = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the event set is exhausted or Stop is
// called. It returns the final virtual time. Like RunUntil, it retires
// the idle process carriers when it leaves no event pending.
func (e *Engine) Run() Time { return e.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with timestamps <= limit, then returns. The
// clock is left at the last executed event (or limit if nothing ran after
// it); pending later events remain queued.
//
// A run that leaves no event pending has nothing left to start a
// process, so RunUntil then retires the idle carriers' goroutines: an
// engine dropped after draining (without Shutdown) leaks none. Processes
// still parked keep theirs until Shutdown.
func (e *Engine) RunUntil(limit Time) Time {
	e.stopped = false
	e.limit = limit
	e.dispatch(nil)
	if f := e.fault; f != nil {
		e.fault = nil
		panic(f)
	}
	if len(e.idle) > 0 && e.Pending() == 0 {
		e.retireIdle()
	}
	return e.now
}

// dispatch runs the event loop on the calling goroutine, which holds the
// control token: the Run caller (self nil) or a carrier (self), parked
// under its process's park or idle after its body returned. It returns
// when control is self's again. When an event hands control to self,
// that costs no goroutine switch at all; to any other carrier, or to the
// Run caller when the run ends, one send and one receive.
func (e *Engine) dispatch(self *carrier) {
	for {
		c := e.runEvents(self)
		if c == self {
			return
		}
		e.handoffs++
		if c != nil {
			c.resume <- struct{}{}
		} else {
			e.home <- struct{}{}
		}
		if self != nil {
			<-self.resume
			return
		}
		// The run ended on a carrier, or a body's Goexit handed the
		// token back: runEvents tells which.
		<-e.home
	}
}

// runEvents executes events until one hands control to a carrier, which
// it returns, or until the run ends — limit, Stop, a fault or no event
// left — when it returns nil. A callback that panics on a carrier is
// recovered here and re-raised by RunUntil, so the fault reaches Run's
// caller instead of killing the program from an anonymous goroutine.
//
// The loop is a two-way merge of the heap and the direct-dispatch queue:
// both are ordered by (time, priority, seq), so popping the smaller head
// preserves the engine's total execution order exactly.
func (e *Engine) runEvents(self *carrier) (next *carrier) {
	if self != nil {
		defer func() {
			if r := recover(); r != nil {
				e.fault, e.stopped, e.next, next = r, true, nil, nil
			}
		}()
	}
	for !e.stopped {
		if c := e.next; c != nil {
			e.next = nil
			return c
		}
		hasDQ := e.dqHead < len(e.dq)
		hasHeap := len(e.events) > 0
		if !hasDQ && !hasHeap {
			break
		}
		useHeap := hasHeap
		if hasDQ && hasHeap {
			// The dispatch head's key is (e.now, PriorityNormal, seq);
			// the heap wins only with a strictly smaller key.
			top := e.events[0]
			if top.at > e.now || (top.at == e.now &&
				(top.prio > PriorityNormal ||
					(top.prio == PriorityNormal && top.seq > e.dq[e.dqHead].seq))) {
				useHeap = false
			}
		}
		if useHeap {
			ev := e.events[0]
			if ev.at > e.limit {
				break
			}
			e.heapPopTop()
			e.now = ev.at
			e.executed++
			fn := ev.fn
			e.release(ev)
			fn()
			continue
		}
		if e.now > e.limit {
			break
		}
		fn := e.dq[e.dqHead].fn
		e.dq[e.dqHead].fn = nil
		e.dqHead++
		if e.dqHead == len(e.dq) {
			e.dq, e.dqHead = e.dq[:0], 0
		} else if e.dqHead >= 64 && e.dqHead*2 >= len(e.dq) {
			// A self-sustaining same-time chain never fully drains the
			// queue; compact so consumed head space is reused. The
			// vacated tail must drop its closure references like the
			// pop path does, or they outlive their events.
			n := copy(e.dq, e.dq[e.dqHead:])
			for i := n; i < len(e.dq); i++ {
				e.dq[i].fn = nil
			}
			e.dq, e.dqHead = e.dq[:n], 0
		}
		e.executed++
		fn()
	}
	return nil
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) + (len(e.dq) - e.dqHead) }

// Live reports the number of live (started or pending) processes.
func (e *Engine) Live() int { return len(e.procs) }

// unregister removes p from the live-process registry by swapping the
// last entry into its slot. It runs on whichever goroutine holds the
// control token: the Shutdown caller (never-started processes) or the
// finishing process's carrier — exclusive either way.
func (e *Engine) unregister(p *Process) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.pidx] = moved
	moved.pidx = p.pidx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// Shutdown tears the engine down: every parked process goroutine is
// resumed into a poison panic that unwinds it (running its defers), the
// idle carriers' goroutines are retired, and the remaining event set is
// cleared. Without this, a run that ends with
// processes still parked — protocol pumps at virtual-budget exhaustion,
// for instance — leaks one goroutine per parked process for the life of
// the program.
//
// Shutdown must be called from engine context (never from inside a
// process), after Run/RunUntil has returned. The engine is dead
// afterwards: its event set is empty and scheduling into it is a bug.
// Calling Shutdown again is a harmless no-op. If a process defer panics
// during unwinding, the first such fault is re-raised after teardown
// completes.
func (e *Engine) Shutdown() {
	// stopped keeps each unwound carrier from dispatching: it hands the
	// token straight back home.
	e.dying, e.stopped = true, true
	var fault any
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		if !p.started {
			// The start event never ran, so the process never ran on its
			// carrier; clearing the event set below disposes of the
			// pending start.
			p.done = true
			p.c.p = nil
			e.idle = append(e.idle, p.c)
			p.c = nil
			e.unregister(p)
			continue
		}
		// The goroutine is blocked in park's resume receive (a started,
		// unfinished process has nowhere else to block). Resume it; park
		// sees dying and panics the shutdown sentinel, the process's defer
		// recovers it and unregisters, and the carrier hands the token
		// back home.
		p.c.resume <- struct{}{}
		<-e.home
		if e.fault != nil && fault == nil {
			fault = e.fault
		}
		e.fault = nil
	}
	e.dying = false
	e.retireIdle()
	// Drop the remaining event set: anything still scheduled (timers,
	// wake transfers for processes just unwound) must never run. Bump
	// generations so outstanding EventHandles turn inert.
	for _, ev := range e.events {
		ev.idx = -1
		ev.gen++
		ev.fn = nil
	}
	e.events = nil
	e.free = nil
	for i := range e.dq {
		e.dq[i].fn = nil
	}
	e.dq, e.dqHead = nil, 0
	if fault != nil {
		panic(fault)
	}
}

// eventLess is the engine's total execution order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// The heap is hand-rolled rather than container/heap so that every
// element knows its own index (idx), which is what makes EventHandle
// .Cancel an O(log n) in-place removal instead of a tombstone.

func (e *Engine) heapPush(ev *event) {
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.siftUp(ev.idx)
}

func (e *Engine) heapPopTop() {
	h := e.events
	h[0].idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.events[0] = last
		last.idx = 0
		e.siftDown(0)
	}
}

// heapRemove takes ev out of the middle of the heap, repairing the
// invariant around the element moved into its slot.
func (e *Engine) heapRemove(ev *event) {
	i := ev.idx
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	ev.idx = -1
	if i == n {
		return
	}
	e.events[i] = last
	last.idx = i
	e.siftDown(i)
	if last.idx == i {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			m = r
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = ev
	ev.idx = i
}

// nextOrdinal numbers a new process or tasklet.
func (e *Engine) nextOrdinal() uint64 {
	e.spawned++
	return e.spawned - 1
}

// diagName formats a process's or tasklet's name, base#ordinal.
func diagName(base string, ord uint64) string {
	return base + "#" + strconv.FormatUint(ord, 10)
}
