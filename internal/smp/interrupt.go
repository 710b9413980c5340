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
	// free recycles the per-interrupt records, so a raise on a warm
	// controller allocates only the handler's sim.Process.
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

// Raise requests execution of handler in interrupt (or polling) context.
// The handler runs on a processor chosen by the policy after the delivery
// latency; its execution time is stolen from whatever that processor was
// doing at the time.
//
// Raise is tier-neutral: it only schedules, never blocks, so it may be
// called from any engine-context code — an event callback, a tasklet step
// (the NIC receive path raises from one), or a process body. The handler
// itself always runs on a process named name, because handler bodies
// block (bus copies, Exec) and so need the goroutine tier; the engine
// runs it on a pooled carrier. The *Thread passed to handler is recycled
// when handler returns: the handler must not retain it.
func (ic *InterruptController) Raise(name string, handler func(t *Thread)) {
	ic.raised++
	n := ic.node
	switch ic.policy {
	case Polling:
		// The polling routine notices the state change at its next tick.
		period := int64(n.Cfg.PollPeriod)
		now := int64(n.Engine.Now())
		wait := sim.Duration((now/period+1)*period - now)
		ic.deliver(name, n.CPUs[ic.pollCPU], wait, n.Cfg.PollCheck, handler)
	case Asymmetric:
		ic.deliver(name, n.CPUs[ic.asymTarget], 0, n.Cfg.InterruptDispatch, handler)
	case Symmetric:
		cpu := n.LeastLoadedCPU()
		ic.deliver(name, cpu, 0, n.Cfg.InterruptDispatch+n.Cfg.InterruptArbitration, handler)
	default:
		panic("smp: unknown interrupt policy")
	}
}

// deliver schedules handler on cpu after an untimed wait (polling delay)
// plus a timed dispatch cost charged to (and stolen from) the CPU.
func (ic *InterruptController) deliver(name string, cpu *Processor, wait, cost sim.Duration, handler func(t *Thread)) {
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
