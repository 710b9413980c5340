package smp

import (
	"fmt"
	"testing"

	"pushpull/internal/sim"
)

// handlerProgram is the handler body both tiers run in the tier tests:
// 2 µs of work, a 4 KiB copy over the memory bus, then 1 µs more.
const (
	progExec1 = 2 * sim.Microsecond
	progCopy  = 4096
	progExec2 = 1 * sim.Microsecond
)

// threadHandler is handlerProgram as a process-tier body.
func threadHandler(end *sim.Time) func(*Thread) {
	return func(th *Thread) {
		th.Exec(progExec1)
		th.Copy(progCopy, false)
		th.Exec(progExec2)
		*end = th.Now()
	}
}

// taskHandler is handlerProgram as a tasklet-tier body.
func taskHandler(end *sim.Time) func(*Task) bool {
	pc := 0
	return func(t *Task) bool {
		for {
			switch pc {
			case 0:
				pc = 1
				if t.Exec(progExec1) {
					return false
				}
			case 1:
				pc = 2
				if t.Copy(progCopy, false) {
					return false
				}
			case 2:
				pc = 3
				if t.Exec(progExec2) {
					return false
				}
			default:
				*end = t.Now()
				return true
			}
		}
	}
}

// tierRun is what one run of the tier test observes: the handler body's
// end, the end of the run (the handler's end, unless probed), the end of
// the computation, and, when probed, a snapshot of every CPU's Load,
// BusyTime and StolenTime (and the bus's busy time) every 100 ns, taken
// after the model's own events at that instant.
type tierRun struct {
	bodyEnd, end sim.Time
	computed     sim.Time
	trace        []string
}

// runTier raises one handler at 3 µs under policy, through Raise
// (task false) or RaiseTask. A thread on CPU 0 holds the bus with a
// 64 KiB copy, so the handler's copy has to wait for it, and a
// computation runs on CPU 1, so handler time is stolen from it when the
// handler lands there.
func runTier(policy Policy, task, contend, probed bool) tierRun {
	e := sim.NewEngine(1)
	n := newNode(e)
	n.IRQ.SetPolicy(policy, 1)
	var r tierRun
	if contend {
		n.Spawn("bus", 0, func(th *Thread) { th.Copy(64<<10, false) })
		n.Spawn("app", 1, func(th *Thread) {
			th.Compute(10_000)
			r.computed = th.Now()
		})
	}
	e.Schedule(3*sim.Microsecond, func() {
		if task {
			n.IRQ.RaiseTask(taskHandler(&r.bodyEnd))
		} else {
			n.IRQ.Raise("rx", threadHandler(&r.bodyEnd))
		}
	})
	var probe func()
	probe = func() {
		s := fmt.Sprintf("%v bus=%v", e.Now(), n.Bus.BusyTime())
		for _, c := range n.CPUs {
			s += fmt.Sprintf(" cpu%d=%d/%v/%v", c.ID, c.Load(), c.BusyTime(), c.StolenTime())
		}
		r.trace = append(r.trace, s)
		if e.Now() < sim.Time(300*sim.Microsecond) {
			e.At(e.Now().Add(100), sim.PriorityLow, probe)
		}
	}
	if probed {
		e.At(0, sim.PriorityLow, probe)
	}
	r.end = e.Run()
	e.Shutdown()
	return r
}

// TestTaskMatchesThreadHandler: a handler charged through RaiseTask's
// task and the same handler charged through Raise's process end at the
// same virtual time, and every CPU's Load, BusyTime and StolenTime agree
// at every instant along the way, under each delivery policy. That is
// what lets the stack move its receive handlers between the tiers
// without changing a digest.
func TestTaskMatchesThreadHandler(t *testing.T) {
	for _, policy := range []Policy{Asymmetric, Symmetric, Polling} {
		for _, contend := range []bool{false, true} {
			name := fmt.Sprintf("%v/contend=%v", policy, contend)
			proc, task := runTier(policy, false, contend, true), runTier(policy, true, contend, true)
			procEnd, taskEnd := runTier(policy, false, contend, false).end, runTier(policy, true, contend, false).end
			if procEnd != taskEnd {
				t.Fatalf("%s: the process-tier handler ends at %v, the task at %v", name, procEnd, taskEnd)
			}
			if proc.bodyEnd == 0 || proc.bodyEnd != task.bodyEnd || proc.computed != task.computed {
				t.Fatalf("%s: process tier body end %v, computation end %v; task tier %v, %v",
					name, proc.bodyEnd, proc.computed, task.bodyEnd, task.computed)
			}
			if len(proc.trace) != len(task.trace) {
				t.Fatalf("%s: %d probes on the process tier, %d on the task tier", name, len(proc.trace), len(task.trace))
			}
			for i := range proc.trace {
				if proc.trace[i] != task.trace[i] {
					t.Fatalf("%s: tiers diverge at probe %d:\nprocess %s\ntask    %s", name, i, proc.trace[i], task.trace[i])
				}
			}
		}
	}
}

// TestTaskDeliveryCosts pins the delivery of an uncontended task against
// the configured costs: the interrupt policies charge dispatch (plus
// arbitration when symmetric), the body and the exit cost; polling waits
// for the next poll tick, charges the poll check and the body, and no
// exit cost.
func TestTaskDeliveryCosts(t *testing.T) {
	cfg := DefaultConfig()
	copyCost := newNode(sim.NewEngine(1)).copyCost(progCopy, false)
	body := progExec1 + copyCost + progExec2
	raise := sim.Time(3 * sim.Microsecond)
	nextTick := sim.Time(cfg.PollPeriod) // the first tick after 3 µs
	for _, tc := range []struct {
		policy  Policy
		bodyEnd sim.Time
		end     sim.Time
	}{
		{Asymmetric, raise.Add(cfg.InterruptDispatch + body), raise.Add(cfg.InterruptDispatch + body + cfg.InterruptExit)},
		{Symmetric, raise.Add(cfg.InterruptDispatch + cfg.InterruptArbitration + body),
			raise.Add(cfg.InterruptDispatch + cfg.InterruptArbitration + body + cfg.InterruptExit)},
		{Polling, nextTick.Add(cfg.PollCheck + body), nextTick.Add(cfg.PollCheck + body)},
	} {
		r := runTier(tc.policy, true, false, false)
		if r.bodyEnd != tc.bodyEnd || r.end != tc.end {
			t.Errorf("%v: body ends at %v and the handler at %v, want %v and %v", tc.policy, r.bodyEnd, r.end, tc.bodyEnd, tc.end)
		}
	}
}

// TestHandlerTasksArePooled: a handler task goes back to the node's pool
// once its handler is done, so raising one handler after another reuses
// a single task.
func TestHandlerTasksArePooled(t *testing.T) {
	e := sim.NewEngine(1)
	n := newNode(e)
	var end sim.Time
	for i := 0; i < 5; i++ {
		e.Schedule(sim.Duration(i)*100*sim.Microsecond, func() { n.IRQ.RaiseTask(taskHandler(&end)) })
	}
	e.Run()
	if got := len(n.freeTasks); got != 1 {
		t.Fatalf("%d pooled handler tasks after 5 sequential handlers, want 1", got)
	}
	if n.IRQ.Raised() != 5 {
		t.Fatalf("raised %d handlers, want 5", n.IRQ.Raised())
	}
}

// TestTaskStolenTime: a user task's time is charged to its CPU but not
// stolen, so a computation there is not stretched by it, while a kernel
// task's time, its dispatch cost included, is stolen and the
// computation absorbs it. Both run handlerProgram on the computing CPU.
func TestTaskStolenTime(t *testing.T) {
	cfg := DefaultConfig()
	body := progExec1 + newNode(sim.NewEngine(1)).copyCost(progCopy, false) + progExec2
	alone := cfg.Mem.Cycles(10_000)
	for _, tc := range []struct {
		name         string
		kernel       bool
		work, stolen sim.Duration
	}{
		{"user", false, body, 0},
		{"kernel", true, cfg.KThreadDispatch + body, cfg.KThreadDispatch + body},
	} {
		e := sim.NewEngine(1)
		n := newNode(e)
		var computed, bodyEnd sim.Time
		n.Spawn("app", 1, func(th *Thread) {
			th.Compute(10_000)
			computed = th.Now()
		})
		e.Schedule(3*sim.Microsecond, func() {
			if tc.kernel {
				n.StartKernelTask(n.CPUs[1], taskHandler(&bodyEnd))
			} else {
				n.StartTask(1, taskHandler(&bodyEnd))
			}
		})
		e.Run()
		if want := sim.Time(3*sim.Microsecond + tc.work); bodyEnd != want {
			t.Errorf("%s task: the body ends at %v, want %v", tc.name, bodyEnd, want)
		}
		if got := n.CPUs[1].StolenTime(); got != tc.stolen {
			t.Errorf("%s task: %v stolen from its CPU, want %v", tc.name, got, tc.stolen)
		}
		if got, want := n.CPUs[1].BusyTime(), alone+tc.work; got != want {
			t.Errorf("%s task: CPU busy for %v, want %v", tc.name, got, want)
		}
		if want := sim.Time(alone + tc.stolen); computed != want {
			t.Errorf("%s task: the computation ends at %v, want %v", tc.name, computed, want)
		}
		if len(n.freeTasks) != 1 {
			t.Errorf("%s task: %d tasks back in the pool, want 1", tc.name, len(n.freeTasks))
		}
	}
}
