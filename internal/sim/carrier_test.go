package sim

import (
	"runtime"
	"testing"
)

// keepWarm schedules an event far past any test's horizon, so a run
// never drains the engine and never retires its idle carriers.
func keepWarm(e *Engine) { e.At(Time(1000*Second), PriorityNormal, func() {}) }

// TestGoAtAllocatesOnlyTheProcess pins the spawn cost on a warm engine:
// GoAt plus the body's run to completion — a sleep expiry and a cond
// wake included — allocates exactly one object, the Process. The
// carrier, its channel and its bound callbacks are all reused.
func TestGoAtAllocatesOnlyTheProcess(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	keepWarm(e)
	c := NewCond(e)
	body := func(p *Process) {
		p.Sleep(Microsecond)
		c.Wait(p)
	}
	spawn := func() {
		p := e.GoAt(Microsecond, "w", body)
		e.RunUntil(e.Now().Add(3 * Microsecond))
		c.Signal()
		e.RunUntil(e.Now())
		if !p.Done() {
			t.Fatal("process did not run to completion")
		}
	}
	spawn() // makes the carrier
	if got := testing.AllocsPerRun(100, spawn); got != 1 {
		t.Fatalf("GoAt on a warm engine allocates %v objects per process, want 1", got)
	}
}

// TestCarrierReusedAcrossProcesses: processes whose lifetimes, from
// GoAt to the body's return, do not overlap run on one carrier, so one
// goroutine serves them all.
func TestCarrierReusedAcrossProcesses(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	keepWarm(e)
	base := settledGoroutines()
	ran := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i)*Microsecond, func() {
			e.Go("seq", func(p *Process) { p.Sleep(1); ran++ })
		})
	}
	e.RunUntil(Time(Millisecond))
	if ran != 10 {
		t.Fatalf("%d of 10 processes ran", ran)
	}
	if len(e.idle) != 1 {
		t.Fatalf("%d idle carriers after 10 sequential processes, want 1", len(e.idle))
	}
	if got := settledGoroutines(); got > base+1 {
		t.Fatalf("%d goroutines, want at most baseline %d plus one carrier", got, base)
	}
}

// TestCarrierSurvivesGoexit: a body that ends its goroutine (a test's
// FailNow does) still finishes its process; the carrier is dropped, and
// the next process gets a fresh one.
func TestCarrierSurvivesGoexit(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	keepWarm(e)
	first := e.Go("exits", func(p *Process) { runtime.Goexit() })
	e.RunUntil(e.Now())
	if !first.Done() || e.Live() != 0 {
		t.Fatalf("Done()=%v Live()=%d after Goexit, want true 0", first.Done(), e.Live())
	}
	if len(e.idle) != 0 {
		t.Fatalf("%d idle carriers after Goexit, want 0", len(e.idle))
	}
	ran := false
	e.Go("next", func(p *Process) { p.Sleep(1); ran = true })
	e.RunUntil(Time(Millisecond))
	if !ran {
		t.Fatal("process after a Goexit did not run")
	}
}

// TestProcessFaultReachesRunOnReusedCarrier: a panic in a body that runs
// on a reused carrier is re-raised from Run, as on a fresh one.
func TestProcessFaultReachesRunOnReusedCarrier(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	keepWarm(e)
	e.Go("warm", func(p *Process) {})
	e.RunUntil(e.Now())
	e.Go("faulty", func(p *Process) { p.Sleep(1); panic("model fault") })
	defer func() {
		if r := recover(); r != "model fault" {
			t.Fatalf("recovered %v, want the body's panic", r)
		}
	}()
	e.RunUntil(Time(Millisecond))
	t.Fatal("Run returned normally after a process panicked")
}

// TestWakeFinishedProcessOnReusedCarrierPanics: a stale reference to a
// finished process cannot reach the carrier's next owner through wake.
func TestWakeFinishedProcessOnReusedCarrierPanics(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	keepWarm(e)
	old := e.Go("old", func(p *Process) {})
	e.RunUntil(e.Now())
	c := NewCond(e)
	e.Go("new", func(p *Process) { c.Wait(p) })
	e.RunUntil(e.Now())
	defer func() {
		if recover() == nil {
			t.Fatal("waking a finished process did not panic")
		}
	}()
	old.wake()
}

// TestShutdownRetiresIdleCarriers: carriers parked on the idle list keep
// their goroutines while the engine has events pending; Shutdown ends
// them, back to the baseline goroutine count.
func TestShutdownRetiresIdleCarriers(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	keepWarm(e)
	c := NewCond(e)
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Process) { c.Wait(p) })
	}
	e.RunUntil(Time(Millisecond))
	c.Broadcast()
	e.RunUntil(Time(Millisecond))
	if e.Live() != 0 || len(e.idle) != 8 {
		t.Fatalf("Live()=%d idle=%d, want 0 and 8", e.Live(), len(e.idle))
	}
	if got := settledGoroutines(); got < base+8 {
		t.Fatalf("%d goroutines with 8 idle carriers, baseline %d", got, base)
	}
	e.Shutdown()
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after shutdown, baseline %d — idle carriers leaked", got, base)
	}
}

// TestShutdownUnneededAfterDrain: an engine dropped once Run has drained
// it, without Shutdown, leaks no carrier goroutine.
func TestShutdownUnneededAfterDrain(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.GoAt(Duration(i%3), "worker", func(p *Process) { p.Sleep(Microsecond) })
	}
	e.Run()
	if e.Pending() != 0 || len(e.idle) != 0 {
		t.Fatalf("Pending()=%d idle=%d after a drained run, want 0 0", e.Pending(), len(e.idle))
	}
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after a drained run, baseline %d — idle carriers leaked", got, base)
	}
}
