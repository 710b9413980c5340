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
