package bench

import (
	"testing"

	"pushpull/internal/scenario"
)

// paperSpec is the testbed with the Fig. 3 pushed buffer running a
// size-byte ping-pong iters times, on one node when intra is set.
func paperSpec(intra bool, size, iters int) scenario.Spec {
	s := testbed(size, iters)
	s.Protocol.PushedBufBytes = 12 << 10
	if intra {
		s = intranode(s)
	}
	return s
}

// earlyLate is s as the paper's compute-then-communicate ping-pong with
// x and y NOPs.
func earlyLate(s scenario.Spec, x, y int64) scenario.Spec {
	s.Traffic.Pattern, s.Traffic.ComputeX, s.Traffic.ComputeY = "earlylate", x, y
	return s
}

// oneShot is s as one transfer whose receiver posts delayUS late.
func oneShot(s scenario.Spec, delayUS float64) scenario.Spec {
	s.Traffic.Pattern, s.Traffic.Messages, s.Traffic.DelayUS = "oneshot", 1, delayUS
	return s
}

func TestSingleTripCollectsRequestedIterations(t *testing.T) {
	s := Latency(paperSpec(true, 100, 37))
	if s.N != 37 {
		t.Errorf("samples = %d, want 37", s.N)
	}
	if s.TrimmedMean <= 0 {
		t.Error("non-positive latency")
	}
}

func TestSingleTripSteadyStateIsNoiseFree(t *testing.T) {
	// A deterministic simulator in steady state should produce nearly
	// identical iterations: min and max within a few percent.
	s := Latency(paperSpec(false, 760, 100))
	if s.Max > s.Min*1.10 {
		t.Errorf("ping-pong jitter too high: min %.2f max %.2f", s.Min, s.Max)
	}
}

func TestSingleTripMonotonicInSize(t *testing.T) {
	small := Latency(paperSpec(true, 100, 50)).TrimmedMean
	large := Latency(paperSpec(true, 8000, 50)).TrimmedMean
	if large <= small {
		t.Errorf("8000B (%.2f) not slower than 100B (%.2f)", large, small)
	}
}

func TestSingleTripDeterministic(t *testing.T) {
	a := Latency(paperSpec(false, 1400, 60)).TrimmedMean
	b := Latency(paperSpec(false, 1400, 60)).TrimmedMean
	if a != b {
		t.Errorf("same workload measured %.4f then %.4f", a, b)
	}
}

func TestBandwidthPositiveAndBounded(t *testing.T) {
	bw := Bandwidth(paperSpec(false, 32768, 20))
	if bw <= 0 {
		t.Fatal("non-positive bandwidth")
	}
	// The wire's payload ceiling is ~12.2 MB/s; no protocol can beat it.
	if bw > 12.3 {
		t.Errorf("internode bandwidth %.2f MB/s exceeds the wire ceiling", bw)
	}
}

func TestBandwidthIntranodeBelowBus(t *testing.T) {
	bw := Bandwidth(paperSpec(true, 16384, 50))
	if bw <= 0 || bw > 533 {
		t.Errorf("intranode bandwidth %.1f MB/s outside (0, 533] bus bound", bw)
	}
}

func TestEarlyLateIncludesComputeTime(t *testing.T) {
	// With x+y NOPs of compute inside the timed region, the single-trip
	// reading must be at least half the pure compute time.
	w := paperSpec(false, 1024, 20)
	s := Latency(earlyLate(w, 100_000, 300_000))
	minCompute := float64(100_000+300_000) * 0.005 / 2 // 5ns per NOP, halved
	if s.TrimmedMean < minCompute {
		t.Errorf("early/late latency %.1fµs below compute floor %.1fµs", s.TrimmedMean, minCompute)
	}
}

func TestEarlyVsLateOrdering(t *testing.T) {
	// The early test burns more total NOPs (500k+100k vs 100k+300k), so
	// its reading must be larger.
	w := paperSpec(false, 1024, 20)
	early := Latency(earlyLate(w, 500_000, 100_000)).TrimmedMean
	late := Latency(earlyLate(w, 100_000, 300_000)).TrimmedMean
	if early <= late {
		t.Errorf("early (%.1f) should exceed late (%.1f) for push-pull at 1KB", early, late)
	}
}

func TestOneShotImmediateReceiver(t *testing.T) {
	us := Latency(oneShot(paperSpec(false, 760, 1), 0)).Mean
	if us < 30 || us > 200 {
		t.Errorf("one-shot 760B transfer = %.1fµs, expected tens of µs", us)
	}
}

func TestOneShotLateReceiverIncludesDelay(t *testing.T) {
	us := Latency(oneShot(paperSpec(false, 760, 1), 2000)).Mean
	if us < 2000 {
		t.Errorf("one-shot with 2ms-late receiver = %.1fµs, want >= 2000", us)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig3", "fig4", "fig6-early", "fig6-late", "btp1", "btp2", "headline"} {
		if !ids[want] {
			t.Errorf("paper experiment %q missing from registry", want)
		}
	}
	if _, err := ByID("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nonsense"); err == nil {
		t.Error("unknown id lookup succeeded")
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	if DefaultParams().Iters != 1000 {
		t.Error("paper methodology uses 1000 iterations")
	}
}
