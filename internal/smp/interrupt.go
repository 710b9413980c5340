package smp

import (
	"fmt"

	"pushpull/internal/sim"
)

// Policy selects how reception-handler invocations reach a processor
// (paper §2, stage 3).
type Policy int

// Handler invocation policies.
const (
	// Asymmetric delivers every interrupt to one pre-assigned processor.
	Asymmetric Policy = iota
	// Symmetric arbitrates each interrupt to the least loaded processor
	// (the paper's optimized configuration, cf. Intel MP 1.4 lowest
	// priority delivery).
	Symmetric
	// Polling dispenses with interrupts: a polling routine notices state
	// changes at its next tick, so invocation latency is quantized to the
	// polling period but avoids the interrupt dispatch cost.
	Polling
)

func (p Policy) String() string {
	switch p {
	case Asymmetric:
		return "asymmetric"
	case Symmetric:
		return "symmetric"
	case Polling:
		return "polling"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// InterruptController delivers device interrupts to processors according
// to the configured policy.
type InterruptController struct {
	node       *Node
	policy     Policy
	asymTarget int
	pollCPU    int
	raised     uint64
	// free recycles the per-interrupt records of the process path, so a
	// raise on a warm controller allocates nothing but the handler's
	// sim.Process (the tasklet path's tasks are pooled on the node).
	free []*irqJob
}

func newInterruptController(n *Node) *InterruptController {
	return &InterruptController{node: n, policy: Symmetric}
}

// SetPolicy selects the delivery policy. For Asymmetric, target is the
// CPU that receives every interrupt; for Polling, target is the CPU whose
// polling routine serves requests. Symmetric ignores target.
func (ic *InterruptController) SetPolicy(p Policy, target int) {
	ic.policy = p
	ic.asymTarget = target
	ic.pollCPU = target
}

// Policy reports the delivery policy in force.
func (ic *InterruptController) Policy() Policy { return ic.policy }

// Raised reports how many handler invocations have been requested.
func (ic *InterruptController) Raised() uint64 { return ic.raised }

// RaiseTask requests execution of body in interrupt (or polling) context
// on the tasklet tier. The handler runs as a Task on a processor chosen
// by the policy after the delivery latency: the dispatch cost, then body
// until it reports true, then the exit cost (none when polling). Its
// execution time is stolen from whatever that processor was doing at the
// time.
//
// RaiseTask only schedules, so it may be called from any engine-context
// code. Handler tasks come from the node's task pool.
func (ic *InterruptController) RaiseTask(body func(t *Task) bool) {
	cpu, wait, cost := ic.route()
	exit := ic.node.Cfg.InterruptExit
	if ic.policy == Polling {
		exit = 0
	}
	ic.node.startTask(cpu, wait, cost, exit, true, body)
}

// Raise is RaiseTask on the process tier: handler runs on a process named
// name, on a pooled carrier, after the same delivery latency and with the
// same dispatch and exit costs. The stack's receive handlers all run as
// tasks; this path is kept for the benchmark module's interrupt
// microbenchmark, which raises a func(*Thread) handler. Like RaiseTask it
// may be called from any engine-context code. The *Thread passed to
// handler is recycled when handler returns: the handler must not retain
// it.
func (ic *InterruptController) Raise(name string, handler func(t *Thread)) {
	cpu, wait, cost := ic.route()
	var j *irqJob
	if n := len(ic.free); n > 0 {
		j = ic.free[n-1]
		ic.free[n-1] = nil
		ic.free = ic.free[:n-1]
	} else {
		j = &irqJob{ic: ic}
		j.runFn = j.run
	}
	j.t = Thread{Node: ic.node, CPU: cpu, handler: true}
	j.cost, j.handler = cost, handler
	ic.node.Engine.GoAt(wait, name, j.runFn)
}

// route counts one raise and picks its CPU per the policy, with the
// untimed wait before the handler starts (the polling delay) and the
// timed dispatch cost charged to, and stolen from, that CPU.
func (ic *InterruptController) route() (cpu *Processor, wait, cost sim.Duration) {
	ic.raised++
	n := ic.node
	switch ic.policy {
	case Polling:
		// The polling routine notices the state change at its next tick.
		period := int64(n.Cfg.PollPeriod)
		now := int64(n.Engine.Now())
		wait = sim.Duration((now/period+1)*period - now)
		return n.CPUs[ic.pollCPU], wait, n.Cfg.PollCheck
	case Asymmetric:
		return n.CPUs[ic.asymTarget], 0, n.Cfg.InterruptDispatch
	case Symmetric:
		return n.LeastLoadedCPU(), 0, n.Cfg.InterruptDispatch + n.Cfg.InterruptArbitration
	default:
		panic("smp: unknown interrupt policy")
	}
}

// irqJob is one handler invocation: the handler's Thread and what to run
// on it. It returns to the controller's free list when the handler
// returns, so the Thread it lent the handler is recycled with it.
type irqJob struct {
	ic      *InterruptController
	t       Thread
	cost    sim.Duration
	handler func(t *Thread)
	// runFn is the bound run method, created once per record.
	runFn func(p *sim.Process)
}

// run is the handler process's body.
func (j *irqJob) run(p *sim.Process) {
	t := &j.t
	t.P = p
	t.Exec(j.cost)
	j.handler(t)
	if j.ic.policy != Polling {
		t.Exec(t.Node.Cfg.InterruptExit)
	}
	j.t, j.handler = Thread{}, nil
	j.ic.free = append(j.ic.free, j)
}
