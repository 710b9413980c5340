package sim

import "fmt"

// Process is a goroutine-backed simulation coroutine. At most one process
// (or event callback) executes at any moment: the engine resumes a process,
// then blocks until the process parks again (by sleeping or waiting) or
// finishes. This strict hand-off keeps simulations deterministic and
// race-free.
//
// Process methods must only be called from within that process's own body.
type Process struct {
	e *Engine
	// name and ord make up the diagnostic name (see Name).
	name   string
	ord    uint64
	resume chan struct{}
	// transferFn is the bound transfer method, created once: scheduling
	// p.transfer directly would allocate a fresh method-value closure on
	// every wake and sleep.
	transferFn func()
	// wakeFn is the wake-path resume: it clears wakePending before
	// transferring so double-wake detection sees the true state.
	wakeFn func()
	done   bool
	// started flips once the start event has run and the goroutine exists;
	// Shutdown must not resume a process that never started.
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

// GoAt is like Go but delays the start of the process by d.
func (e *Engine) GoAt(d Duration, name string, body func(p *Process)) *Process {
	p := &Process{e: e, name: name, ord: e.nextOrdinal(), resume: make(chan struct{}, 1)}
	p.transferFn = p.transfer
	p.wakeFn = func() {
		p.wakePending = false
		p.transfer()
	}
	p.pidx = len(e.procs)
	e.procs = append(e.procs, p)
	e.Schedule(d, func() {
		p.started = true
		go func() {
			<-p.resume
			defer func() {
				// Panics inside a process would otherwise kill the whole
				// program from an anonymous goroutine; capture and re-raise
				// them in engine context so callers of Run see them. The
				// shutdown sentinel is the one expected unwinding.
				if r := recover(); r != nil {
					if _, ok := r.(shutdownSentinel); !ok {
						p.e.fault = r
					}
				}
				p.done = true
				p.e.unregister(p)
				p.e.yield <- struct{}{}
			}()
			body(p)
		}()
		p.transfer()
	})
	return p
}

// transfer hands the engine's control token to the process and blocks until
// the process parks or finishes. Must be called from engine context.
//
// Both control channels are buffered (capacity 1), so handing the token
// over costs each side a single blocking channel operation: the resume
// send completes immediately and the engine parks only on the yield
// receive; symmetrically the process's yield send completes immediately —
// the engine regains control without a second rendezvous — and the
// process parks only on its resume receive.
func (p *Process) transfer() {
	p.resume <- struct{}{}
	<-p.e.yield
	if p.e.fault != nil {
		f := p.e.fault
		p.e.fault = nil
		panic(f)
	}
}

// park suspends the process until something resumes it. Must be called from
// process context. A resume during engine shutdown unwinds the goroutine
// instead of returning to the model.
func (p *Process) park() {
	p.e.yield <- struct{}{}
	<-p.resume
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
	p.e.At(p.e.now, PriorityNormal, p.wakeFn)
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
	p.e.At(p.e.now.Add(d), PriorityNormal, p.transferFn)
	p.park()
}

// Yield lets every other event already scheduled at the current time run
// before the process continues.
func (p *Process) Yield() { p.Sleep(0) }
