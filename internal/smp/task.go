package smp

import "pushpull/internal/sim"

// Task is an interrupt or polling handler on the tasklet tier: the
// counterpart of a handler Thread for a body written as a resumable step
// function instead of blocking process code. RaiseTask runs one.
//
// Its timed operations charge the bound CPU exactly as Thread's do, and
// its time is stolen from computations there, but instead of blocking
// they park the task's tasklet and report true. The body must then
// return false and continue from its own resume point the next time it
// is called. Whatever the parked operation still has to do once its time
// is up (end the CPU charge, retry a contended lock, release the bus
// after a copy) the task does before it calls the body again.
//
// Each Task operation schedules the same events in the same order as the
// Thread operation it replaces: Exec(d) sleeps once for d, or not at all
// when d <= 0; Copy and Acquire poll the lock's FIFO, and Copy sleeps
// once it holds the bus. So moving a handler from a process to a task
// leaves every digest unchanged.
//
// Tasks come from the interrupt controller's free list and go back to it
// when the handler is done, so a body must not retain its *Task.
type Task struct {
	Node *Node
	CPU  *Processor
	tk   *sim.Tasklet
	ic   *InterruptController
	body func(t *Task) bool
	// stage is the delivery stage; cost is the dispatch cost to charge.
	stage taskStage
	cost  sim.Duration
	// open is the operation the last park left unfinished, lock the lock
	// it waits for or holds, and hold how long a copy holds the bus.
	open openOp
	lock locker
	hold sim.Duration
}

// taskStage orders a handler task's delivery: dispatch cost, the body,
// then the exit cost.
type taskStage int8

const (
	taskDispatch taskStage = iota
	taskBody
	taskExit
)

// openOp is a timed operation left unfinished across a park.
type openOp int8

const (
	openNone    openOp = iota
	openExec           // an Exec is running: end the CPU charge
	openAcquire        // waiting for a lock, which the body then holds
	openOccupy         // waiting for the bus, to hold it for a copy
	openHold           // a copy holds the bus: release it, end the charge
)

// locker is a FIFO lock a task can poll: the memory bus or a
// sim.Resource.
type locker interface {
	PollAcquire(w sim.Waiter, first bool) bool
	Release()
}

// run is the task's tasklet step: finish the open operation, then go on
// through the delivery stages until something parks.
func (t *Task) run(*sim.Tasklet) {
	if !t.resume() {
		return
	}
	for {
		switch t.stage {
		case taskDispatch:
			t.stage = taskBody
			if t.Exec(t.cost) {
				return
			}
		case taskBody:
			if !t.body(t) {
				return
			}
			t.stage = taskExit
			if t.ic.policy != Polling && t.Exec(t.Node.Cfg.InterruptExit) {
				return
			}
		case taskExit:
			t.CPU, t.body = nil, nil
			t.ic.freeTasks = append(t.ic.freeTasks, t)
			return
		}
	}
}

// resume finishes the operation the last park left open. It reports
// false when the task must stay parked: a retried lock is still taken,
// or a copy has only now got the bus and starts its hold.
func (t *Task) resume() bool {
	switch t.open {
	case openExec:
		t.CPU.active--
	case openAcquire, openOccupy:
		if !t.lock.PollAcquire(t.tk, false) {
			return false
		}
		if t.open == openOccupy {
			t.open = openHold
			t.tk.Sleep(t.hold)
			return false
		}
	case openHold:
		t.lock.Release()
		t.CPU.active--
	}
	t.open, t.lock = openNone, nil
	return true
}

// Now reports the current virtual time.
func (t *Task) Now() sim.Time { return t.Node.Engine.Now() }

// Exec is Thread.Exec on the tasklet tier: it runs d of handler work on
// the bound CPU and reports whether the task parked (d > 0).
func (t *Task) Exec(d sim.Duration) bool {
	if d <= 0 {
		return false
	}
	t.CPU.charge(d, true)
	t.open = openExec
	t.tk.Sleep(d)
	return true
}

// SleepUntil parks the task until at, without charging the CPU, and
// reports whether it parked (at is in the future).
func (t *Task) SleepUntil(at sim.Time) bool {
	now := t.Now()
	if now >= at {
		return false
	}
	t.tk.Sleep(at.Sub(now))
	return true
}

// Copy is Thread.Copy on the tasklet tier: a timed copy of n bytes that
// keeps the CPU busy and holds the memory bus. It reports whether the
// task parked (n > 0).
func (t *Task) Copy(n int, cold bool) bool {
	if n <= 0 {
		return false
	}
	d := t.Node.copyCost(n, cold)
	t.CPU.charge(d, true)
	t.lock, t.hold = t.Node.Bus, d
	if !t.Node.Bus.PollAcquire(t.tk, true) {
		t.open = openOccupy
		return true
	}
	t.open = openHold
	t.tk.Sleep(d)
	return true
}

// Acquire is Resource.Acquire on the tasklet tier. It takes r and reports
// false if r is free; otherwise it queues the task in r's FIFO and
// reports true, and the body is called again once the task holds r. The
// body releases r itself.
func (t *Task) Acquire(r *sim.Resource) bool {
	if r.PollAcquire(t.tk, true) {
		return false
	}
	t.lock, t.open = r, openAcquire
	return true
}

// SignalCost reports the cost of waking a thread on CPU target from this
// task's CPU.
func (t *Task) SignalCost(target *Processor) sim.Duration {
	return t.Node.signalCost(t.CPU, target)
}
