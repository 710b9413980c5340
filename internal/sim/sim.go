// Package sim provides a deterministic discrete-event simulation kernel in
// virtual time. It is the substrate on which the whole testbed — SMP nodes,
// NICs, Ethernet links and the Push-Pull Messaging protocol itself — is
// modelled.
//
// The kernel schedules callbacks at absolute virtual times and runs them
// in a total order (time, priority, sequence number), so simulations are
// exactly reproducible. On top of the raw event layer sit two execution
// tiers that model code chooses between:
//
//   - Processes (sim.Process): goroutine-backed coroutines that may block
//     on virtual time (Sleep), conditions (Cond), bounded queues (Queue)
//     and resources (Resource). Control is one token that passes between
//     goroutines, and the event loop runs on whichever goroutine holds
//     it, so at most one process runs at a time and process code reads
//     like straight-line protocol code yet remains deterministic. A
//     resume costs one goroutine switch (~0.7 µs), or none when the
//     process's own wake is the next event due: fine for application-
//     level scenario code, still ~20x a tasklet resume on protocol hot
//     paths.
//   - Tasklets (sim.Tasklet): resumable state-machine callbacks dispatched
//     inline by the engine with zero goroutine handoff. A tasklet's step
//     function runs in engine context and parks by registering with a
//     sync primitive through its polling variants (Queue.PollGet/PollPut,
//     Resource.PollAcquire, Cond.Await) and returning; an explicit resume
//     point (a pc field in the owning struct) replaces the goroutine
//     stack. The NIC, go-back-N and switch pumps and the receive
//     interrupt handlers run on this tier.
//
// Both tiers park on the same primitives through the Waiter interface:
// Cond, Queue and Resource keep a single FIFO waiter list in which
// processes and tasklets mix freely, so wake order — and therefore the
// engine's total execution order — does not depend on which tier a waiter
// runs on. A process wake, a tasklet wake and a tasklet Start each consume
// exactly one scheduling slot, which is what makes converting an actor
// from one tier to the other behavior-neutral (byte-identical scenario
// digests), not just approximately equivalent.
//
// Determinism guarantees are tier-independent: same seed, same model,
// same execution order. Tasklet wakes coalesce (waking an already-
// scheduled tasklet is a no-op) and same-timestamp resumes batch through
// the engine's direct-dispatch ring, so a wake chain never leaves engine
// context.
//
// Process bodies run on pooled carrier goroutines, which a run that
// drains the engine retires. Engines that ran processes should still be
// torn down with Engine.Shutdown once the run is over; otherwise every
// still-parked process leaks its goroutine.
//
// All state is confined to a single Engine; engines are not safe for use
// from multiple goroutines except through the process mechanism. Every
// run executes on one Engine, so the pinned digests are the only
// determinism contract. Parallelism lives across runs instead: sweeps
// and studies give each run its own Engine and run them side by side.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports the duration as a floating-point microsecond count,
// the unit used throughout the paper's evaluation.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

func (t Time) String() string { return Duration(t).String() }
