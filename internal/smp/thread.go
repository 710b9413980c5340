package smp

import (
	"pushpull/internal/sim"
)

// Thread is a flow of control (user process, kernel thread, or interrupt
// handler body) bound to one processor of a node. Timed operations charge
// the bound CPU; Copy and PIO additionally occupy the memory bus.
//
// An interrupt handler's *Thread is recycled when the handler returns
// (see InterruptController.Raise), so a handler must not retain it.
type Thread struct {
	P    *sim.Process
	Node *Node
	CPU  *Processor
	// handler marks interrupt/poll handler threads: their execution time
	// is stolen from computations on the same CPU.
	handler bool
}

// Spawn starts a new thread named name on the given CPU.
func (n *Node) Spawn(name string, cpu int, body func(t *Thread)) {
	n.Engine.Go(name, func(p *sim.Process) {
		body(&Thread{P: p, Node: n, CPU: n.CPUs[cpu]})
	})
}

// SpawnAt is Spawn with a start delay.
func (n *Node) SpawnAt(d sim.Duration, name string, cpu int, body func(t *Thread)) {
	n.Engine.GoAt(d, name, func(p *sim.Process) {
		body(&Thread{P: p, Node: n, CPU: n.CPUs[cpu]})
	})
}

// Now reports the current virtual time.
func (t *Thread) Now() sim.Time { return t.P.Now() }

// Exec runs d of work on the bound CPU. Handler threads additionally
// record the time as stolen, so a Compute in progress on the same CPU
// stretches by the same amount.
func (t *Thread) Exec(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.CPU.charge(d, t.handler)
	t.P.Sleep(d)
	t.CPU.active--
}

// Compute burns cycles of application work (the paper's NOP loops). The
// computation absorbs any handler time stolen from this CPU while it runs:
// if an interrupt handler executed for 10 µs here, the computation
// finishes 10 µs later.
func (t *Thread) Compute(cycles int64) {
	d := t.Node.Cfg.Mem.Cycles(cycles)
	t.CPU.charge(d, false)
	absorbed := t.CPU.stolen
	for d > 0 {
		t.P.Sleep(d)
		d = t.CPU.stolen - absorbed
		absorbed = t.CPU.stolen
	}
	t.CPU.active--
}

// Copy performs a timed memory copy of n bytes: the CPU is busy and the
// memory bus is held for the duration. cold applies the cold-cache
// penalty, modelling a copy whose data was last touched by another CPU.
func (t *Thread) Copy(n int, cold bool) {
	if n <= 0 {
		return
	}
	d := t.Node.copyCost(n, cold)
	t.CPU.charge(d, t.handler)
	t.Node.Bus.Occupy(t.P, d)
	t.CPU.active--
}

// PIO performs a programmed-I/O transfer of n bytes into device memory.
func (t *Thread) PIO(n int) {
	if n <= 0 {
		return
	}
	d := t.Node.Copier.PIOCost(n)
	t.CPU.charge(d, t.handler)
	t.Node.Bus.Occupy(t.P, d)
	t.CPU.active--
}

// Syscall brackets fn with the kernel entry/exit costs.
func (t *Thread) Syscall(fn func()) {
	t.Exec(t.Node.Cfg.SyscallEntry)
	fn()
	t.Exec(t.Node.Cfg.SyscallExit)
}

// SignalCost reports the cost of waking a thread on CPU target from this
// thread's CPU.
func (t *Thread) SignalCost(target *Processor) sim.Duration {
	return t.Node.signalCost(t.CPU, target)
}

// Blocking returns t as a Runner whose operations block the thread in
// place: each returns only once it is over, and reports false. A step
// body driven through it runs to completion in one call.
func (t *Thread) Blocking() Runner { return (*blocking)(t) }

// blocking is a Thread seen as a Runner.
type blocking Thread

func (b *blocking) Now() sim.Time              { return b.P.Now() }
func (b *blocking) Exec(d sim.Duration) bool   { (*Thread)(b).Exec(d); return false }
func (b *blocking) Copy(n int, cold bool) bool { (*Thread)(b).Copy(n, cold); return false }
func (b *blocking) PIO(n int) bool             { (*Thread)(b).PIO(n); return false }
func (b *blocking) Wait(c *sim.Cond) bool      { c.Wait(b.P); return false }
func (b *blocking) SignalCost(target *Processor) sim.Duration {
	return (*Thread)(b).SignalCost(target)
}
