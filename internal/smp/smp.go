// Package smp models one symmetric multiprocessor node of the cluster:
// processors with load accounting, user/kernel threads, and the three
// reception-handler invocation methods the paper studies — asymmetric
// interrupt (fixed CPU), symmetric interrupt (arbitrated to the least
// loaded CPU, as the paper's optimized configuration uses), and polling.
//
// Interrupt handlers preempt whatever a processor is doing: handler
// execution time is "stolen" from the computation running on that CPU,
// which a Thread.Compute in progress absorbs by running longer. This is
// how the simulation reproduces the paper's §4.1 claim that running the
// pull phase on a lightly loaded processor overlaps communication with
// computation instead of slowing it down.
package smp

import (
	"fmt"

	"pushpull/internal/mem"
	"pushpull/internal/sim"
	"pushpull/internal/vm"
)

// Config collects the node's hardware shape and kernel software costs.
// Defaults model Linux 2.1.90 on a quad 200 MHz Pentium Pro.
type Config struct {
	NumCPUs int
	Mem     mem.Config
	VMCost  vm.CostModel
	// PhysMemBytes sizes the frame pool (paper: 256 MB per node).
	PhysMemBytes uint64

	// Software path costs.
	CallOverhead sim.Duration // user-level library call prologue
	SyscallEntry sim.Duration // user -> kernel crossing
	SyscallExit  sim.Duration // kernel -> user crossing
	QueueOp      sim.Duration // lock + enqueue/dequeue on a shared queue
	SignalLocal  sim.Duration // wake a thread on the same CPU
	SignalRemote sim.Duration // wake a thread on another CPU (IPI + reschedule)
	WakeLatency  sim.Duration // woken thread: reschedule + context switch until it runs

	// Interrupt delivery.
	InterruptDispatch    sim.Duration // vector entry to handler start
	InterruptArbitration sim.Duration // extra redirection cost of symmetric delivery
	InterruptExit        sim.Duration // iret path
	// KThreadDispatch is the cost of handing work to an idle kernel
	// thread on another processor (IPI + queue hand-off) — the intranode
	// pull phase uses this, not the NIC interrupt path.
	KThreadDispatch sim.Duration

	// Polling.
	PollPeriod sim.Duration // gap between polls of the NIC state variables
	PollCheck  sim.Duration // cost of one poll that finds work

	// ColdCachePenalty multiplies copy cost when the copying processor did
	// not touch the data last (paper §4.1: offloading the push phase would
	// "introduce a large number of cache misses").
	ColdCachePenalty float64
}

// DefaultConfig is the paper's node: 4 CPUs, 256 MB, Linux 2.1.90-era
// kernel path costs.
func DefaultConfig() Config {
	return Config{
		NumCPUs:      4,
		Mem:          mem.PentiumPro200(),
		VMCost:       vm.DefaultCostModel(),
		PhysMemBytes: 256 << 20,

		CallOverhead: 250 * sim.Nanosecond,
		SyscallEntry: 800 * sim.Nanosecond,
		SyscallExit:  800 * sim.Nanosecond,
		QueueOp:      500 * sim.Nanosecond,
		SignalLocal:  700 * sim.Nanosecond,
		SignalRemote: 2000 * sim.Nanosecond,
		WakeLatency:  2500 * sim.Nanosecond,

		InterruptDispatch:    5500 * sim.Nanosecond,
		InterruptArbitration: 400 * sim.Nanosecond,
		InterruptExit:        700 * sim.Nanosecond,
		KThreadDispatch:      1200 * sim.Nanosecond,

		PollPeriod: 5 * sim.Microsecond,
		PollCheck:  300 * sim.Nanosecond,

		ColdCachePenalty: 1.15,
	}
}

// Processor is one CPU of the node. Load is the number of contexts
// currently executing timed work on it; handler time is additionally
// accounted as stolen so computations absorb it.
type Processor struct {
	ID     int
	active int
	stolen sim.Duration
	busy   sim.Duration
}

// charge starts d of timed work on the CPU; stolen marks handler time,
// which computations on the CPU absorb. The caller ends the work with
// active-- once d has elapsed.
func (c *Processor) charge(d sim.Duration, stolen bool) {
	c.active++
	c.busy += d
	if stolen {
		c.stolen += d
	}
}

// Load reports the number of contexts currently running timed work.
func (c *Processor) Load() int { return c.active }

// BusyTime reports cumulative timed work executed on this CPU.
func (c *Processor) BusyTime() sim.Duration { return c.busy }

// StolenTime reports cumulative handler time stolen from this CPU.
func (c *Processor) StolenTime() sim.Duration { return c.stolen }

// Node is one SMP machine of the cluster.
type Node struct {
	ID     int
	Engine *sim.Engine
	Cfg    Config
	CPUs   []*Processor
	Bus    *mem.Bus
	Copier *mem.Copier
	Frames *vm.FrameAllocator
	IRQ    *InterruptController
	// freeTasks recycles the tasks of finished task bodies (see
	// startTask), so starting one on a warm node allocates nothing.
	freeTasks []*Task
}

// NewNode builds a node with the given id and configuration.
func NewNode(e *sim.Engine, id int, cfg Config) *Node {
	if cfg.NumCPUs <= 0 {
		panic("smp: node needs at least one CPU")
	}
	n := &Node{ID: id, Engine: e, Cfg: cfg}
	for i := 0; i < cfg.NumCPUs; i++ {
		n.CPUs = append(n.CPUs, &Processor{ID: i})
	}
	n.Bus = mem.NewBus(e, cfg.Mem)
	n.Copier = mem.NewCopier(n.Bus)
	n.Frames = vm.NewFrameAllocator(cfg.PhysMemBytes)
	n.IRQ = newInterruptController(n)
	return n
}

// NewSpace creates a fresh user address space on this node.
func (n *Node) NewSpace(name string) *vm.AddressSpace {
	return vm.NewAddressSpace(fmt.Sprintf("n%d/%s", n.ID, name), n.Frames, n.Cfg.VMCost)
}

// copyCost reports the time of a memory copy of size bytes; cold
// applies the cold-cache penalty.
func (n *Node) copyCost(size int, cold bool) sim.Duration {
	d := n.Copier.CopyCost(size)
	if cold {
		d = sim.Duration(float64(d) * n.Cfg.ColdCachePenalty)
	}
	return d
}

// signalCost reports the cost of waking a thread on CPU to from CPU from.
func (n *Node) signalCost(from, to *Processor) sim.Duration {
	if to == from {
		return n.Cfg.SignalLocal
	}
	return n.Cfg.SignalRemote
}

// LeastLoadedCPU returns the CPU with the fewest active contexts,
// preferring higher-numbered CPUs on ties so that handler work lands away
// from CPU 0, where applications conventionally start.
func (n *Node) LeastLoadedCPU() *Processor {
	best := n.CPUs[len(n.CPUs)-1]
	for i := len(n.CPUs) - 2; i >= 0; i-- {
		if n.CPUs[i].active < best.active {
			best = n.CPUs[i]
		}
	}
	return best
}
