package sim

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines samples runtime.NumGoroutine until it stops falling,
// giving just-unwound goroutines time to actually exit (the yield
// handshake returns before the goroutine's final return).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestShutdownUnwindsParkedProcesses is the regression test for the
// goroutine leak: a run that ends with processes parked (the protocol-
// pump-at-budget-exhaustion shape) must return to the baseline goroutine
// count after Shutdown.
func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	c := NewCond(e)
	for i := 0; i < 8; i++ {
		e.Go("parked", func(p *Process) { c.Wait(p) }) // never signalled
	}
	e.RunUntil(Time(Millisecond))
	if e.Live() != 8 {
		t.Fatalf("Live() = %d before shutdown, want 8", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after shutdown, want 0", e.Live())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after shutdown, want 0", e.Pending())
	}
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after shutdown, baseline %d — parked processes leaked", got, base)
	}
}

// TestShutdownDropsNeverStartedProcesses: a process whose start event
// has not run yet has never run on its carrier; Shutdown must unregister
// it without resuming its body.
func TestShutdownDropsNeverStartedProcesses(t *testing.T) {
	e := NewEngine(1)
	e.GoAt(Second, "future", func(p *Process) {
		t.Error("never-started process body ran during shutdown")
	})
	e.RunUntil(Time(Millisecond))
	if e.Live() != 1 {
		t.Fatalf("Live() = %d, want 1 (pending start)", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("Live()=%d Pending()=%d after shutdown, want 0 0", e.Live(), e.Pending())
	}
}

// TestShutdownRunsDefers: unwinding is a real stack unwind — a parked
// process's defers run, so model cleanup hooks fire.
func TestShutdownRunsDefers(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	cleaned := false
	e.Go("guarded", func(p *Process) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	e.RunUntil(Time(Millisecond))
	e.Shutdown()
	if !cleaned {
		t.Fatal("parked process's defer did not run during shutdown")
	}
}

// TestShutdownIdempotent: a second Shutdown on a dead engine is a no-op.
func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Go("parked", func(p *Process) { c.Wait(p) })
	e.RunUntil(Time(Millisecond))
	e.Shutdown()
	e.Shutdown()
	if e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("Live()=%d Pending()=%d after double shutdown", e.Live(), e.Pending())
	}
}

// TestShutdownAfterCleanRun: shutting down an engine whose processes all
// finished normally is safe and leaves nothing behind.
func TestShutdownAfterCleanRun(t *testing.T) {
	e := NewEngine(1)
	e.Go("worker", func(p *Process) { p.Sleep(Microsecond) })
	e.Run()
	e.Shutdown()
	if e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("Live()=%d Pending()=%d after clean-run shutdown", e.Live(), e.Pending())
	}
}
