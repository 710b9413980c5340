package sim

import "fmt"

// Process is a goroutine-backed simulation coroutine. At most one process
// (or event callback) executes at any moment: control is a single token
// that passes from goroutine to goroutine, and the event loop runs on
// whichever goroutine holds it. This strict hand-off keeps simulations
// deterministic and race-free.
//
// A resume costs at most one goroutine switch: a parking process runs
// the event loop itself until an event hands control on, and when that
// event is its own wake (a Sleep with no other event due first) it
// resumes inline, with no switch at all.
//
// Process methods must only be called from within that process's own body.
//
// A process body runs on a carrier the engine owns: a goroutine and its
// resume channel, which the engine hands to the next process once this
// body returns. So a *Process stays valid after its body returns — Done,
// Name and the finished-process wake panic keep working — but the body
// must leave nothing scheduled that resumes it (a Sleep it does not wait
// out, a Cond registration it does not park on): such an event would
// resume the carrier's next process instead.
type Process struct {
	e *Engine
	// name and ord make up the diagnostic name (see Name).
	name string
	ord  uint64
	body func(p *Process)
	// c is the carrier running the body; nil once the body has returned.
	c    *carrier
	done bool
	// started flips once the start event has run; Shutdown must not resume
	// a process that never started.
	started bool
	// pidx is this process's slot in the engine's registry (for O(1)
	// swap-removal on finish).
	pidx int
	// waiting marks the process as parked on a Cond/Queue/Resource so that
	// double-wakes can be detected as model bugs; parked records which cond,
	// for the diagnostic message.
	waiting     bool
	wakePending bool
	parked      *Cond
}

// carrier is a pooled process goroutine. Its start, resume and wake
// callbacks are bound once, when the carrier is made, so spawning a
// process on a warm carrier allocates only the Process. The goroutine
// lives from the carrier's making until it is retired.
//
// Only one process owns a carrier at a time, from GoAt until its body
// returns; the callbacks act on that owner. That is why no event may
// refer to a process after its body returns (see Process). A carrier
// whose body returned keeps the control token and goes on dispatching
// events from the idle list, so a process spawned onto it next (GoAt
// reuses the last idle carrier first) often starts without a switch.
type carrier struct {
	e      *Engine
	p      *Process // the owner; nil while idle, and the retire signal
	resume chan struct{}
	// startFn, transferFn and wakeFn are the bound start, sleep-expiry
	// and wake callbacks: scheduling a method value directly would
	// allocate a fresh closure on every spawn, sleep and wake. Each only
	// names the carrier as the next to run; dispatch does the switch.
	startFn    func()
	transferFn func()
	wakeFn     func()
}

// shutdownSentinel is the poison panic used by Engine.Shutdown to unwind
// parked process goroutines; each process's recover treats it as a normal
// exit rather than a model fault.
type shutdownSentinel struct{}

// Go starts a new process running body at the current virtual time. The
// process is scheduled like any other event; body begins executing when the
// engine reaches that event.
func (e *Engine) Go(name string, body func(p *Process)) *Process {
	return e.GoAt(0, name, body)
}

// GoAt is like Go but delays the start of the process by d. The process
// takes an idle carrier, or a new one if none is idle.
func (e *Engine) GoAt(d Duration, name string, body func(p *Process)) *Process {
	p := &Process{e: e, name: name, ord: e.nextOrdinal(), body: body}
	p.c = e.takeCarrier()
	p.c.p = p
	p.pidx = len(e.procs)
	e.procs = append(e.procs, p)
	e.Schedule(d, p.c.startFn)
	return p
}

// takeCarrier pops an idle carrier, or makes one and starts its
// goroutine, which waits for its first owner's start.
func (e *Engine) takeCarrier() *carrier {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	c := &carrier{e: e, resume: make(chan struct{}, 1)}
	c.startFn = c.start
	c.transferFn = func() { e.next = c }
	c.wakeFn = func() {
		c.p.wakePending = false
		e.next = c
	}
	go c.loop()
	return c
}

// retireIdle ends the goroutines of every idle carrier and drops the
// carriers. Must be called by the holder of the control token, with the
// run over: every idle carrier is then blocked on its resume.
func (e *Engine) retireIdle() {
	for i, c := range e.idle {
		c.resume <- struct{}{} // p is nil: the loop returns
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// start is the owner's start event.
func (c *carrier) start() {
	c.p.started = true
	c.e.next = c
}

// loop is the carrier goroutine: wait for the first owner's start, then
// run each owner's body in turn, dispatching events between owners, until
// a resume arrives with no owner.
func (c *carrier) loop() {
	exiting, idle := true, false
	defer func() {
		if !exiting {
			return
		}
		// runtime.Goexit (a test's FailNow, say) is ending the goroutine
		// while it holds the control token. A body's Goexit drops the
		// carrier (see run); a callback's between owners leaves it on the
		// idle list, or owned by a process not yet started, so a fresh
		// goroutine takes over. Either way the Run caller carries on.
		if idle {
			go c.loop()
		}
		c.e.home <- struct{}{}
	}()
	<-c.resume
	for c.p != nil {
		c.run(c.p)
		idle = true
		c.e.dispatch(c)
		idle = false
	}
	exiting = false
}

// run executes one body and puts the carrier back on the engine's idle
// list. A body that ends the goroutine through runtime.Goexit still
// finishes its process, but the carrier is dropped with its goroutine.
func (c *carrier) run(p *Process) {
	e := c.e
	reuse := false
	defer func() {
		// A panic inside a process would otherwise kill the whole program
		// from an anonymous goroutine; capture it and end the run, and
		// RunUntil re-raises it so callers of Run see it. The shutdown
		// sentinel is the one expected unwinding.
		if r := recover(); r != nil {
			reuse = true
			if _, ok := r.(shutdownSentinel); !ok {
				e.fault, e.stopped = r, true
			}
		}
		p.done = true
		p.c = nil
		e.unregister(p)
		c.p = nil
		if reuse {
			e.idle = append(e.idle, c)
		}
	}()
	p.body(p)
	reuse = true
}

// park suspends the process until something resumes it, running the event
// loop on its goroutine meanwhile. Must be called from process context. A
// resume during engine shutdown unwinds the goroutine instead of
// returning to the model.
func (p *Process) park() {
	p.e.dispatch(p.c)
	if p.e.dying {
		panic(shutdownSentinel{})
	}
}

// wake schedules the process to resume at the current virtual time. It is
// the engine-side counterpart to park. Waking a finished process, or one
// whose previous wake has not run yet, is always a model bug; the panic
// carries enough context (process, virtual time, what it was parked on)
// to find it.
func (p *Process) wake() {
	if p.done {
		panic(fmt.Sprintf("sim: waking finished process %s at %v (last parked on %s)",
			p.Name(), p.e.now, p.parkedDesc()))
	}
	if p.wakePending {
		panic(fmt.Sprintf("sim: double wake of process %s at %v (parked on %s)",
			p.Name(), p.e.now, p.parkedDesc()))
	}
	p.wakePending = true
	p.waiting = false
	p.e.At(p.e.now, PriorityNormal, p.c.wakeFn)
}

// parkOn records the cond the process is registering on; with wake it
// implements the Waiter interface shared with tasklets.
func (p *Process) parkOn(c *Cond) {
	p.waiting = true
	p.parked = c
}

// parkedDesc describes what the process is (or was last) parked on.
func (p *Process) parkedDesc() string {
	switch {
	case p.parked == nil:
		return "nothing"
	case p.parked.name == "":
		return "an unnamed cond"
	default:
		return fmt.Sprintf("cond %q", p.parked.name)
	}
}

// Name reports the process's name, base#ordinal: the name it was started
// with and its creation ordinal, unique within the engine. Names are
// diagnostics: formatted on demand, and outside every digest.
func (p *Process) Name() string { return diagName(p.name, p.ord) }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.e }

// Now reports the current virtual time.
func (p *Process) Now() Time { return p.e.now }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Sleep suspends the process for virtual duration d. Sleeping a negative
// duration panics; sleeping zero yields to other events at the same time.
func (p *Process) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping negative duration %d", p.Name(), d))
	}
	p.e.At(p.e.now.Add(d), PriorityNormal, p.c.transferFn)
	p.park()
}

// Yield lets every other event already scheduled at the current time run
// before the process continues.
func (p *Process) Yield() { p.Sleep(0) }
