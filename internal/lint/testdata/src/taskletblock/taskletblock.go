// Package taskletblock exercises the taskletblock analyzer: code
// reachable from an Engine.NewTasklet step registration must stay on
// the polling tier.
package taskletblock

// Local stand-ins for the engine API; matching is by type and method
// name.
type (
	Engine  struct{}
	Tasklet struct{}
	Process struct{}
	Queue   struct{}
)

func (e *Engine) NewTasklet(name string, step func(*Tasklet)) *Tasklet { return nil }
func (q *Queue) Get(p *Process) int                                    { return 0 }
func (q *Queue) PollGet(tk *Tasklet) (int, bool)                       { return 0, false }
func (p *Process) Sleep(d int)                                         {}
func (p *Process) Name() string                                        { return "" }

type pump struct {
	q *Queue
	p *Process
}

// step is registered as a tasklet step below; everything it reaches is
// checked.
func (pm *pump) step(tk *Tasklet) {
	pm.q.Get(pm.p) // want `blocking call Queue\.Get`
	helper(pm)
}

func helper(pm *pump) {
	pm.p.Sleep(1) // want `blocking call Process\.Sleep`
	_ = pm.p.Name()
}

func handoff(pm *pump) {
	drive(pm.p) // want `passing \*Process`
}

func drive(p *Process) {}

func register(e *Engine, pm *pump) {
	e.NewTasklet("pump", pm.step)
	e.NewTasklet("inline", func(tk *Tasklet) {
		pm.q.Put(tk) // want `blocking call Queue\.Put`
	})
	e.NewTasklet("handoff", func(tk *Tasklet) { handoff(pm) })
}

func (q *Queue) Put(v any) {}

// acknowledged: a blocking call explicitly signed off.
func acked(e *Engine, pm *pump) {
	e.NewTasklet("acked", func(tk *Tasklet) {
		//pushpull:lint-allow taskletblock reached only via the process-tier fallback, guarded by a tier flag
		pm.q.Get(pm.p)
	})
}

// clean: the polling tier is the legal way to touch a queue from a
// tasklet, and benign identity methods are fine anywhere.
func cleanStep(e *Engine, pm *pump) {
	e.NewTasklet("clean", func(tk *Tasklet) {
		if v, ok := pm.q.PollGet(tk); ok {
			_ = v
		}
		_ = pm.p.Name()
	})
}

// clean: blocking calls outside any tasklet-reachable function are the
// process tier working as intended.
func processTier(q *Queue, p *Process) int {
	return q.Get(p)
}

// Task is a local stand-in for smp's tasklet-tier handler context: a
// handler body receives it through a func value or an interface, which
// traversal cannot follow, so every function taking a *Task is a seed.
type Task struct{}

func (t *Task) Exec(d int) bool { return d > 0 }

type handler struct {
	p *Process
	q *Queue
}

func (h *handler) Step(t *Task) bool {
	if t.Exec(1) {
		return false
	}
	h.p.Sleep(1) // want `blocking call Process\.Sleep reachable from tasklet "handler\.Step"`
	return h.deliver(t)
}

func (h *handler) deliver(t *Task) bool {
	h.q.Get(h.p) // want `blocking call Queue\.Get`
	return true
}

// clean: a Task body that parks through the Task and polls the queue.
func cleanBody(t *Task, q *Queue) bool {
	if t.Exec(1) {
		return false
	}
	_, ok := q.PollGet(nil)
	return ok
}

// Runner is a local stand-in for smp's Runner: a step body written
// against it serves a blocking Thread caller and a Task caller alike.
// Traversal cannot follow its method calls, so a body is checked when a
// *Task-taking function calls it statically.
type Runner interface {
	Exec(d int) bool
	Wait(c *Cond) bool
}

// Cond and Thread are local stand-ins for sim.Cond and smp.Thread.
type (
	Cond   struct{}
	Thread struct{ p *Process }
)

func (c *Cond) Wait(p *Process) {}
func (t *Thread) Exec(d int)    {}

func (t *Task) Wait(c *Cond) bool { return true }

// blocking is a Thread's view of Runner: its methods block,
// but nothing reaches them through the interface.
type blocking Thread

func (b *blocking) Exec(d int) bool   { (*Thread)(b).Exec(d); return false }
func (b *blocking) Wait(c *Cond) bool { c.Wait(b.p); return false }

// sendBody is a send step machine. runTask drives it on a Task, Send on
// a Thread.
type sendBody struct {
	pc   int
	done *Cond
	p    *Process
	th   *Thread
}

func (sb *sendBody) runTask(t *Task) bool { return sb.step(t) }

func (sb *sendBody) Send(th *Thread) {
	for !sb.step((*blocking)(th)) {
	}
}

func (sb *sendBody) step(x Runner) bool {
	for {
		switch sb.pc {
		case 0:
			sb.pc = 1
			if x.Exec(1) {
				return false
			}
		case 1:
			sb.pc = 2
			if x.Wait(sb.done) {
				return false
			}
		case 2:
			sb.done.Wait(sb.p) // want `blocking call Cond\.Wait reachable from tasklet "sendBody\.runTask"`
			sb.pc = 3
		default:
			return sb.finish(x)
		}
	}
}

func (sb *sendBody) finish(x Runner) bool {
	sb.th.Exec(1) // want `blocking call Thread\.Exec reachable from tasklet "sendBody\.runTask"`
	return true
}
