package scenario

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines samples runtime.NumGoroutine until it stops falling,
// giving just-unwound process goroutines time to actually exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestSweepGoroutineLeak is the regression test for the parked-process
// leak: points that exhaust their virtual-time budget end with rank
// threads and protocol pumps still parked, and before Engine.Shutdown
// each such point leaked its whole goroutine complement for the life of
// the process — a sweep-killer at grid scale. After a sweep whose points
// ALL fail on budget, the goroutine count must return to baseline.
func TestSweepGoroutineLeak(t *testing.T) {
	base := DefaultSpec()
	base.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 2}
	base.Traffic = Traffic{Pattern: "alltoall", Size: 1400, Messages: 20}
	base.MaxVirtualMS = 0.0001 // nothing completes inside this budget
	sw := Sweep{Name: "leaky", Base: base, Grid: Grid{Seeds: []uint64{1, 2, 3, 4}}}

	baseline := settledGoroutines()
	res, err := RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Points || res.Points != 4 {
		t.Fatalf("want all 4 points budget-failed, got %d/%d", res.Failed, res.Points)
	}
	// Allow the sweep workers themselves to wind down, then compare.
	if got := settledGoroutines(); got > baseline {
		t.Fatalf("%d goroutines after sweep, baseline %d — budget-exhausted points leak parked processes",
			got, baseline)
	}
}

// TestRunShutdownAfterSuccess: the normal (completed) run path also
// tears its cluster down — success must not be the leaky branch.
func TestRunShutdownAfterSuccess(t *testing.T) {
	baseline := settledGoroutines()
	spec := DefaultSpec()
	spec.Traffic = Traffic{Pattern: "pingpong", Size: 64, Messages: 3}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got > baseline {
		t.Fatalf("%d goroutines after completed run, baseline %d", got, baseline)
	}
}
