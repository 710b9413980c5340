package sim

import (
	"runtime"
	"testing"
)

// TestSleepResumesInline: a process whose sleep expiry is the next event
// due resumes on its own goroutine, without a switch. The only handoffs
// are the start (Run caller to carrier) and the end of the run (carrier
// back to the Run caller), however many sleeps come between.
func TestSleepResumesInline(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	sleeps := 0
	e.Go("sleeper", func(p *Process) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
			sleeps++
		}
	})
	e.Run()
	if sleeps != 100 || e.Now() != Time(100*Microsecond) {
		t.Fatalf("%d sleeps ending at %v, want 100 at 100µs", sleeps, e.Now())
	}
	if e.handoffs != 2 {
		t.Fatalf("%d handoffs for 100 sleeps, want 2 (start and end of run)", e.handoffs)
	}
}

// TestAlternatingYieldsSwitchOncePerResume: two processes yielding to
// each other cost one switch per resume — control passes straight from
// one carrier to the other, never through the Run caller. With n yields
// each, there are 2n+2 resumes (two starts and 2n wakes) and one handoff
// home at the end.
func TestAlternatingYieldsSwitchOncePerResume(t *testing.T) {
	const n = 50
	e := NewEngine(1)
	defer e.Shutdown()
	body := func(p *Process) {
		for i := 0; i < n; i++ {
			p.Yield()
		}
	}
	e.Go("a", body)
	e.Go("b", body)
	e.Run()
	if want := uint64(2*n + 3); e.handoffs != want {
		t.Fatalf("%d handoffs for %d alternating yields, want %d", e.handoffs, 2*n, want)
	}
}

// TestShutdownAfterCallbackPanicOnCarrier: a callback that panics while
// a parked process's carrier runs the event loop reaches Run's caller
// with its original value, and a following Shutdown unwinds the parked
// process back to the baseline goroutine count.
func TestShutdownAfterCallbackPanicOnCarrier(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	e.Go("sleeper", func(p *Process) { p.Sleep(Second) })
	var onCarrier bool
	e.Schedule(Microsecond, func() {
		// One handoff so far, the start: the sleeper's carrier holds the
		// loop.
		onCarrier = e.handoffs == 1
		panic("callback fault")
	})
	func() {
		defer func() {
			if r := recover(); r != "callback fault" {
				t.Fatalf("recovered %v, want the callback's panic", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned normally after a callback panicked")
	}()
	if !onCarrier {
		t.Fatal("the callback did not run on the sleeper's carrier")
	}
	if e.Live() != 1 {
		t.Fatalf("Live() = %d after the fault, want the parked sleeper", e.Live())
	}
	e.Shutdown()
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after shutdown, baseline %d — carrier leaked", got, base)
	}
}

// TestStopFromProcessBody: Stop called by a process ends the run at its
// next park; the next Run carries on from there.
func TestStopFromProcessBody(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var woke []Time
	e.Go("stopper", func(p *Process) {
		p.Sleep(Microsecond)
		e.Stop()
		p.Sleep(Microsecond)
		woke = append(woke, p.Now())
	})
	if now := e.Run(); now != Time(Microsecond) || len(woke) != 0 {
		t.Fatalf("first Run ended at %v with %d wakes, want 1µs and none", now, len(woke))
	}
	if now := e.Run(); now != Time(2*Microsecond) || len(woke) != 1 {
		t.Fatalf("second Run ended at %v with %d wakes, want 2µs and one", now, len(woke))
	}
}

// TestRunUntilLimitReachedOnCarrier: a limit met while a process's
// carrier holds the loop ends the run there, and the next RunUntil
// resumes the same process at its due time.
func TestRunUntilLimitReachedOnCarrier(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var woke []Time
	e.Go("ticker", func(p *Process) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * Microsecond)
			woke = append(woke, p.Now())
		}
	})
	if now := e.RunUntil(Time(25 * Microsecond)); now != Time(20*Microsecond) || len(woke) != 2 {
		t.Fatalf("RunUntil(25µs) ended at %v after %v, want 20µs after two wakes", now, woke)
	}
	e.RunUntil(Time(100 * Microsecond))
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond), Time(40 * Microsecond)}
	if len(woke) != len(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke at %v, want %v", woke, want)
		}
	}
}

// TestGoexitWhileHoldingTokenDoesNotHang: a body that has run the loop
// on its carrier (its sleeps resume inline) and then ends its goroutine
// with runtime.Goexit hands control back to the Run caller, and the run
// goes on to finish the other process.
func TestGoexitWhileHoldingTokenDoesNotHang(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	other := false
	e.Go("exits", func(p *Process) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	e.GoAt(2*Microsecond, "other", func(p *Process) { p.Sleep(Microsecond); other = true })
	e.Run()
	if !other || e.Live() != 0 {
		t.Fatalf("other ran=%v Live()=%d after a Goexit, want true 0", other, e.Live())
	}
}

// TestGoexitInCallbackOnIdleCarrierDoesNotHang: a callback that ends the
// goroutine it runs on — here an idle carrier's, whose body has returned
// — hands control back to the Run caller instead of stranding it, and
// the carrier, still on the idle list, serves the next process.
func TestGoexitInCallbackOnIdleCarrierDoesNotHang(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	keepWarm(e)
	later := false
	e.Go("brief", func(p *Process) {})
	e.Schedule(Microsecond, func() { runtime.Goexit() })
	e.Schedule(2*Microsecond, func() {
		e.Go("next", func(p *Process) { p.Sleep(Microsecond); later = true })
	})
	e.RunUntil(Time(Millisecond))
	if !later || e.Live() != 0 {
		t.Fatalf("next ran=%v Live()=%d after a callback's Goexit, want true 0", later, e.Live())
	}
	if len(e.idle) != 1 {
		t.Fatalf("%d idle carriers, want the one carrier kept in service", len(e.idle))
	}
}

// TestShutdownRetiresCarrierThatEndedRun: a carrier whose body returned
// goes on dispatching, and when it finds no event left it ends the run;
// RunUntil then retires it, so no goroutine outlives the drained engine.
func TestShutdownRetiresCarrierThatEndedRun(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	e.Go("brief", func(p *Process) { p.Sleep(Microsecond) })
	e.Run()
	if e.handoffs != 2 {
		t.Fatalf("%d handoffs, want 2: the run must end on the carrier", e.handoffs)
	}
	if len(e.idle) != 0 {
		t.Fatalf("%d idle carriers after a drained run, want 0", len(e.idle))
	}
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after a drained run, baseline %d — carrier leaked", got, base)
	}
	e.Shutdown()
}
