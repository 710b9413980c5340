package smp

import "pushpull/internal/sim"

// Runner is what a step-machine body runs its timed operations on: a
// Task, where each operation parks the task and reports true, or a
// Thread's Blocking view, where each blocks the thread in place and
// reports false. A body written against Runner checks every result: on
// true it records its resume point and returns, and it is called again
// once the operation is over; on false it goes straight on. So one body
// serves both a blocking call on the caller's thread and a nonblocking
// one on a pooled task, with the same events in the same order.
type Runner interface {
	// Now reports the current virtual time.
	Now() sim.Time
	// Exec runs d of work on the bound CPU.
	Exec(d sim.Duration) bool
	// Copy is a timed copy of n bytes that holds the memory bus.
	Copy(n int, cold bool) bool
	// PIO is a programmed-I/O transfer of n bytes that holds the bus.
	PIO(n int) bool
	// Wait waits for one wake of c (no wake latency: the body charges
	// that itself where the model does).
	Wait(c *sim.Cond) bool
	// SignalCost reports the cost of waking a thread on CPU target.
	SignalCost(target *Processor) sim.Duration
}

// Task is a flow of control on the tasklet tier: the counterpart of a
// Thread for a body written as a resumable step function instead of
// blocking process code. RaiseTask runs an interrupt or polling handler
// on one, StartKernelTask a kernel worker and StartTask a user-level
// helper.
//
// Its timed operations charge the bound CPU exactly as Thread's do
// (handler and kernel tasks' time is stolen from computations there, a
// user task's is not), but instead of blocking they park the task's
// tasklet and report true. The body must then return false and continue
// from its own resume point the next time it is called. Whatever the
// parked operation still has to do once its time is up (end the CPU
// charge, retry a contended lock, release the bus after a copy) the task
// does before it calls the body again.
//
// Each Task operation schedules the same events in the same order as the
// Thread operation it replaces: Exec(d) sleeps once for d, or not at all
// when d <= 0; Copy, PIO and Acquire poll the lock's FIFO, and Copy and
// PIO sleep once they hold the bus; Wait registers on the cond. So moving
// a body from a process to a task leaves every digest unchanged.
//
// Tasks come from the node's free list and go back to it when the body
// is done, so a body must not retain its *Task.
type Task struct {
	Node *Node
	CPU  *Processor
	tk   *sim.Tasklet
	body func(t *Task) bool
	// stolen marks handler and kernel time, which computations on the
	// CPU absorb.
	stolen bool
	// stage is the delivery stage; cost and exit are the dispatch and
	// exit costs to charge around the body.
	stage      taskStage
	cost, exit sim.Duration
	// open is the operation the last park left unfinished, lock the lock
	// it waits for or holds, and hold how long a copy holds the bus.
	open openOp
	lock locker
	hold sim.Duration
}

// StartTask runs body as a user-level task on CPU cpu, the tasklet-tier
// Spawn: no dispatch or exit cost, and its time is not stolen. Like
// Spawn it takes the current instant's next dispatch slot, and like
// RaiseTask it may be called from any engine-context code.
func (n *Node) StartTask(cpu int, body func(t *Task) bool) {
	n.startTask(n.CPUs[cpu], 0, 0, 0, false, body)
}

// StartKernelTask runs body as a kernel worker task on cpu: it charges
// the kernel-thread dispatch cost first, and its time is stolen from
// computations there.
func (n *Node) StartKernelTask(cpu *Processor, body func(t *Task) bool) {
	n.startTask(cpu, 0, n.Cfg.KThreadDispatch, 0, true, body)
}

// startTask takes a pooled task (one is made only when every earlier one
// is still running) and starts it on cpu after wait. Start and Sleep
// take the same dispatch slot as the process tier's GoAt(wait).
func (n *Node) startTask(cpu *Processor, wait, cost, exit sim.Duration, stolen bool, body func(t *Task) bool) {
	var t *Task
	if k := len(n.freeTasks); k > 0 {
		t = n.freeTasks[k-1]
		n.freeTasks[k-1] = nil
		n.freeTasks = n.freeTasks[:k-1]
	} else {
		t = &Task{Node: n}
		t.tk = n.Engine.NewTasklet("task", t.run)
	}
	t.CPU, t.body, t.stolen = cpu, body, stolen
	t.stage, t.cost, t.exit = taskDispatch, cost, exit
	if wait > 0 {
		t.tk.Sleep(wait)
	} else {
		t.tk.Start()
	}
}

// taskStage orders a task's run: dispatch cost, the body, then the exit
// cost.
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
			if t.Exec(t.exit) {
				return
			}
		case taskExit:
			t.CPU, t.body = nil, nil
			t.Node.freeTasks = append(t.Node.freeTasks, t)
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

// Exec is Thread.Exec on the tasklet tier: it runs d of work on the
// bound CPU and reports whether the task parked (d > 0).
func (t *Task) Exec(d sim.Duration) bool {
	if d <= 0 {
		return false
	}
	t.CPU.charge(d, t.stolen)
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
	return t.occupy(t.Node.copyCost(n, cold))
}

// PIO is Thread.PIO on the tasklet tier: a programmed-I/O transfer of n
// bytes into device memory. It reports whether the task parked (n > 0).
func (t *Task) PIO(n int) bool {
	if n <= 0 {
		return false
	}
	return t.occupy(t.Node.Copier.PIOCost(n))
}

// occupy charges d to the CPU and holds the bus for d, queueing for it
// first if it is taken.
func (t *Task) occupy(d sim.Duration) bool {
	t.CPU.charge(d, t.stolen)
	t.lock, t.hold = t.Node.Bus, d
	if !t.Node.Bus.PollAcquire(t.tk, true) {
		t.open = openOccupy
		return true
	}
	t.open = openHold
	t.tk.Sleep(d)
	return true
}

// Wait is Cond.Wait on the tasklet tier: it registers the task for c's
// next wake and reports true.
func (t *Task) Wait(c *sim.Cond) bool {
	c.Await(t.tk)
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
