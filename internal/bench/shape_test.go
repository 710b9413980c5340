package bench

// These tests pin the *shape* of every reproduced figure: who wins, by
// roughly what factor, and where crossovers fall. They are the
// regression net for the reproduction — calibration changes that break a
// paper claim fail here.

import (
	"math"
	"testing"

	"pushpull/coll"
	"pushpull/internal/stats"
)

// quick keeps shape tests fast; shapes are stable at 50 iterations in a
// noise-free simulator.
var quickParams = Params{Iters: 50}

func experimentTables(t *testing.T, id string, p Params) []*stats.Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(p)
}

func seriesByLabel(t *testing.T, tab *stats.Table, label string) *stats.Series {
	t.Helper()
	for _, s := range tab.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("table %q has no series %q", tab.Title, label)
	return nil
}

func TestFig3Shape(t *testing.T) {
	tab := experimentTables(t, "fig3", quickParams)[0]
	zero := seriesByLabel(t, tab, "push-zero")
	pull := seriesByLabel(t, tab, "push-pull")
	all := seriesByLabel(t, tab, "push-all")

	// Paper: minimum latency for a 10-byte message is 7.5 µs and
	// Push-Zero's synchronization makes it clearly slower there.
	if v := pull.Y(10); v < 5 || v > 10 {
		t.Errorf("push-pull at 10B = %.2fµs, want ~7.5", v)
	}
	if zero.Y(10) < pull.Y(10)+2 {
		t.Errorf("push-zero at 10B (%.2f) should clearly exceed push-pull (%.2f)", zero.Y(10), pull.Y(10))
	}
	// Paper: "Around 4000 bytes, the latency of Push-All was abruptly
	// increased" — the jump must be visible between 4000 and 5000 while
	// Push-Pull grows smoothly.
	allJump := all.Y(5000) - all.Y(4000)
	pullJump := pull.Y(5000) - pull.Y(4000)
	if allJump < 2*pullJump {
		t.Errorf("push-all cliff missing: jump %.2fµs vs push-pull %.2fµs", allJump, pullJump)
	}
	// Paper: Push-All is the worst mechanism at 8 KB; Push-Pull and
	// Push-Zero stay steady and close.
	if all.Y(8192) <= pull.Y(8192) {
		t.Errorf("at 8192B push-all (%.2f) should exceed push-pull (%.2f)", all.Y(8192), pull.Y(8192))
	}
	if math.Abs(pull.Y(8192)-zero.Y(8192)) > 2 {
		t.Errorf("push-pull (%.2f) and push-zero (%.2f) should track closely at 8KB", pull.Y(8192), zero.Y(8192))
	}
}

func TestFig4Shape(t *testing.T) {
	tab := experimentTables(t, "fig4", quickParams)[0]
	none := seriesByLabel(t, tab, "no-optimization")
	mask := seriesByLabel(t, tab, "mask-only")
	over := seriesByLabel(t, tab, "overlap-only")
	full := seriesByLabel(t, tab, "full-optimization")

	// Paper: "Before 760 bytes, all four messaging mechanisms behaved
	// the same" (up to the trigger-path difference masking implies).
	for _, x := range []float64{4, 200, 600, 760} {
		if none.Y(x)-over.Y(x) > 0.01 || mask.Y(x)-full.Y(x) > 0.01 {
			t.Errorf("at %gB overlap should change nothing: none %.2f/overlap %.2f, mask %.2f/full %.2f",
				x, none.Y(x), over.Y(x), mask.Y(x), full.Y(x))
		}
	}
	// Beyond 760 B: full < overlap-only < mask-only < none, and the
	// overlap gain exceeds the masking gain ("Push-and-Acknowledge
	// Overlapping showed larger improvement").
	for _, x := range []float64{1000, 1400} {
		if !(full.Y(x) < over.Y(x) && over.Y(x) < mask.Y(x) && mask.Y(x) < none.Y(x)) {
			t.Errorf("at %gB ordering broken: full %.2f, overlap %.2f, mask %.2f, none %.2f",
				x, full.Y(x), over.Y(x), mask.Y(x), none.Y(x))
		}
		maskGain := none.Y(x) - mask.Y(x)
		overGain := none.Y(x) - over.Y(x)
		if overGain <= maskGain {
			t.Errorf("at %gB overlap gain (%.2f) should exceed mask gain (%.2f)", x, overGain, maskGain)
		}
	}
}

func TestFig6EarlyShape(t *testing.T) {
	tab := experimentTables(t, "fig6-early", quickParams)[0]
	zero := seriesByLabel(t, tab, "push-zero")
	pull := seriesByLabel(t, tab, "push-pull")
	all := seriesByLabel(t, tab, "push-all")
	for _, x := range []float64{1024, 4096, 8192} {
		// Paper: Push-Zero's empty push phase wastes bandwidth — it is
		// constantly slower than both data-pushing mechanisms.
		if zero.Y(x) <= pull.Y(x) || zero.Y(x) <= all.Y(x) {
			t.Errorf("early at %gB: push-zero (%.1f) should be slowest (pull %.1f, all %.1f)",
				x, zero.Y(x), pull.Y(x), all.Y(x))
		}
		// Paper: Push-Pull and Push-All perform similarly (the
		// translation saving is real but small).
		if d := math.Abs(pull.Y(x) - all.Y(x)); d > 25 {
			t.Errorf("early at %gB: push-pull (%.1f) and push-all (%.1f) should be close, differ %.1f",
				x, pull.Y(x), all.Y(x), d)
		}
	}
}

func TestFig6LateShape(t *testing.T) {
	tab := experimentTables(t, "fig6-late", quickParams)[0]
	zero := seriesByLabel(t, tab, "push-zero")
	pull := seriesByLabel(t, tab, "push-pull")
	all := seriesByLabel(t, tab, "push-all")

	// Paper: below 3072 B Push-All delivers fastest (the whole message
	// is already buffered when the late receive arrives).
	for _, x := range []float64{1024, 2048} {
		if !(all.Y(x) < pull.Y(x) && pull.Y(x) < zero.Y(x)) {
			t.Errorf("late at %gB: want all < pull < zero, got %.1f / %.1f / %.1f",
				x, all.Y(x), pull.Y(x), zero.Y(x))
		}
	}
	// Paper: at 3072 B Push-All collapses — ~150 ms recovery versus
	// ~1.2-1.3 ms for the others ("Push-All took around 150 ms while
	// Push-Zero took 1303.58 µs and Push-Pull 1227.42 µs").
	if all.Y(3072) < 50_000 {
		t.Errorf("push-all at 3072B = %.0fµs; expected go-back-N collapse above 50ms", all.Y(3072))
	}
	if pull.Y(3072) > 3000 || zero.Y(3072) > 3000 {
		t.Errorf("push-pull/zero at 3072B should stay in the ms range: %.0f / %.0f", pull.Y(3072), zero.Y(3072))
	}
	// Paper: Push-Pull always beats Push-Zero in the late test (the
	// pushed BTP bytes shorten the pull).
	for _, x := range []float64{1024, 3072, 8192} {
		if pull.Y(x) >= zero.Y(x) {
			t.Errorf("late at %gB: push-pull (%.1f) should beat push-zero (%.1f)", x, pull.Y(x), zero.Y(x))
		}
	}
}

func TestBTP2SweepShape(t *testing.T) {
	tab := experimentTables(t, "btp2", quickParams)[0]
	s := seriesByLabel(t, tab, "push-pull")
	// Pushing more in the overlapped second fragment must help a lot at
	// first (paper: "the overall latency could be shortened as the value
	// of BTP(2) increased")...
	if s.Y(0) <= s.Y(600) {
		t.Errorf("BTP2=0 (%.1f) should be slower than BTP2=600 (%.1f)", s.Y(0), s.Y(600))
	}
	// ...and there is an interior optimum: the largest sweep value is
	// not the best (paper: "there was an upper limit on the BTP(2)
	// value").
	best := argminX(s)
	if best >= 1400 {
		t.Errorf("BTP2 optimum at the sweep edge (%.0f); expected an interior optimum", best)
	}
	if s.Y(1400) <= s.Y(best) {
		t.Errorf("latency at BTP2=1400 (%.2f) should exceed the optimum (%.2f at %.0f)",
			s.Y(1400), s.Y(best), best)
	}
}

func TestBTP1SweepShape(t *testing.T) {
	tab := experimentTables(t, "btp1", quickParams)[0]
	s := seriesByLabel(t, tab, "push-pull")
	// Paper: a modest first push helps ("when the value was smaller than
	// the threshold value, the latency would actually decrease").
	if s.Y(80) >= s.Y(0) {
		t.Errorf("BTP1=80 (%.2f) should beat BTP1=0 (%.2f)", s.Y(80), s.Y(0))
	}
}

func TestHeadlineWithinTolerance(t *testing.T) {
	tab := runHeadline(Params{Iters: 100})[0]
	paper := seriesByLabel(t, tab, "paper")
	ours := seriesByLabel(t, tab, "measured")
	// Rows: 0 intranode latency, 1 intranode BW, 2 internode latency,
	// 3 internode BW, 4 translation cost, 5 push-all recovery.
	tolerances := []float64{0.15, 0.15, 0.10, 0.10, 0.25, 0.25}
	for i, tol := range tolerances {
		p, m := paper.Y(float64(i)), ours.Y(float64(i))
		if rel := math.Abs(m-p) / p; rel > tol {
			t.Errorf("headline row %d: measured %.2f vs paper %.2f (off %.0f%%, tolerance %.0f%%)",
				i, m, p, rel*100, tol*100)
		}
	}
}

func TestMultiRailScaling(t *testing.T) {
	tab := runMultiRail(Params{Iters: 100})[0]
	s := seriesByLabel(t, tab, "push-pull")
	if s.Y(2) < 1.8*s.Y(1) {
		t.Errorf("2 rails = %.1f MB/s, want >= 1.8x one rail (%.1f)", s.Y(2), s.Y(1))
	}
	if s.Y(4) < 3.4*s.Y(1) {
		t.Errorf("4 rails = %.1f MB/s, want >= 3.4x one rail (%.1f)", s.Y(4), s.Y(1))
	}
}

func TestPollingAblationShape(t *testing.T) {
	tab := experimentTables(t, "ablation-polling", Params{Iters: 50})[0]
	s := seriesByLabel(t, tab, "latency")
	// Slow polling must cost roughly the added period.
	if s.Y(50) <= s.Y(1) {
		t.Error("50µs polling should be slower than 1µs polling")
	}
	// Tight polling beats interrupt dispatch (that is its point).
	if s.Y(1) >= s.Y(0) {
		t.Errorf("1µs polling (%.1f) should beat symmetric interrupts (%.1f)", s.Y(1), s.Y(0))
	}
}

func TestZeroBufAblationShape(t *testing.T) {
	tabs := runAblationZeroBuf(Params{Iters: 50})
	bwTab := tabs[1]
	zb := seriesByLabel(t, bwTab, "zero-buffer")
	dc := seriesByLabel(t, bwTab, "double-copy")
	for _, x := range []float64{4000, 16384} {
		if zb.Y(x) < 1.3*dc.Y(x) {
			t.Errorf("zero buffer at %gB = %.1f MB/s, want >= 1.3x double copy (%.1f)", x, zb.Y(x), dc.Y(x))
		}
	}
}

func TestPullCPUAblationShape(t *testing.T) {
	tab := runAblationPullCPU(Params{Iters: 50})[0]
	ll := seriesByLabel(t, tab, "least-loaded")
	rc := seriesByLabel(t, tab, "receiver-cpu")
	if rc.Y(0) <= ll.Y(0) {
		t.Errorf("co-located pulls (%.2fms) should slow the worker vs offloaded (%.2fms)", rc.Y(0), ll.Y(0))
	}
}

func TestTriggerAblationShape(t *testing.T) {
	tab := experimentTables(t, "ablation-trigger", Params{Iters: 50})[0]
	user := seriesByLabel(t, tab, "user-trigger")
	kern := seriesByLabel(t, tab, "kernel-trigger")
	for _, x := range []float64{4, 760} {
		if user.Y(x) >= kern.Y(x) {
			t.Errorf("at %gB user trigger (%.2f) should beat kernel path (%.2f)", x, user.Y(x), kern.Y(x))
		}
	}
}

func TestOneShotRecoveryNearPaper(t *testing.T) {
	ms := Latency(pushAllLateOneShot()).Mean / 1000
	if ms < 100 || ms > 200 {
		t.Errorf("push-all 3072B recovery = %.1fms, want ~150", ms)
	}
}

// TestLongVectorAlgorithmsWin pins the long-vector acceptance bar: at
// 64 KiB on 8 ranks the segmented ring Bcast completes in less virtual
// time than the plain ring, and rs-ag's busiest node moves fewer wire
// bytes (and finishes sooner) than the tree's root.
func TestLongVectorAlgorithmsWin(t *testing.T) {
	const longVecBytes = 64 << 10
	data := make([]byte, longVecBytes)
	bcast := func(opts ...coll.Opt) float64 {
		perOp, _ := LongVectorCollective(8, 3, func(r *coll.Rank) {
			var src []byte
			if r.ID() == 0 {
				src = data
			}
			r.Bcast(0, src, longVecBytes, opts...)
		})
		return perOp
	}
	ring := bcast(coll.WithAlgorithm(coll.Ring))
	seg := bcast(coll.WithAlgorithm(coll.RingSegmented), coll.WithSegment(8192))
	if seg >= ring {
		t.Errorf("segmented ring bcast %.1f µs, plain ring %.1f µs — pipelining lost", seg, ring)
	}

	allreduce := func(alg coll.Algorithm) (float64, float64) {
		return LongVectorCollective(8, 3, func(r *coll.Rank) {
			r.AllReduce(rankVector(r, longVecBytes), coll.XorBytes, coll.WithAlgorithm(alg))
		})
	}
	treeUS, treeVol := allreduce(coll.Tree)
	rsagUS, rsagVol := allreduce(coll.RSAG)
	if rsagVol >= treeVol {
		t.Errorf("rs-ag hottest node moved %.0f B/op, tree %.0f B/op — volume balance lost", rsagVol, treeVol)
	}
	if rsagUS >= treeUS {
		t.Errorf("rs-ag %.1f µs/op, tree %.1f µs/op — bandwidth optimality lost", rsagUS, treeUS)
	}
}

func TestLossAblationShape(t *testing.T) {
	tabs := runAblationLoss(quickParams)
	trimmed := seriesByLabel(t, tabs[0], "middle-80% mean")
	plain := seriesByLabel(t, tabs[0], "plain mean")
	// The trimmed estimator drops the rare RTO recoveries the plain
	// mean keeps, so it can only read lower.
	for _, pt := range trimmed.Points {
		if plain.Y(pt.X) < pt.Y {
			t.Errorf("at %g%% loss the plain mean (%.2f) is below the trimmed mean (%.2f)", pt.X, plain.Y(pt.X), pt.Y)
		}
	}
	bw := seriesByLabel(t, tabs[1], "push-pull full-opt")
	if bw.Y(5) >= bw.Y(0) {
		t.Errorf("bandwidth at 5%% loss (%.2f MB/s) should fall below the clean wire's (%.2f)", bw.Y(5), bw.Y(0))
	}
}

func TestHubAblationShape(t *testing.T) {
	tabs := runHub(quickParams)
	bw := tabs[1]
	if hub, b2b := seriesByLabel(t, bw, "hub (half-duplex)").Y(8192), seriesByLabel(t, bw, "back-to-back").Y(8192); hub >= b2b {
		t.Errorf("hub 8192 B bandwidth (%.2f MB/s) should fall below back-to-back (%.2f)", hub, b2b)
	}
	// Data and acks collide on the hub's one wire, so its latency
	// spreads; the back-to-back cable has no contention at all.
	jit := tabs[2]
	if hub := seriesByLabel(t, jit, "hub (half-duplex)"); hub.Y(99) <= hub.Y(50) {
		t.Errorf("hub p99 (%.2f) should exceed its p50 (%.2f)", hub.Y(99), hub.Y(50))
	}
	if b2b := seriesByLabel(t, jit, "back-to-back"); b2b.Y(99) != b2b.Y(50) {
		t.Errorf("back-to-back p99 (%.2f) should equal its p50 (%.2f)", b2b.Y(99), b2b.Y(50))
	}
}

func TestScaleShape(t *testing.T) {
	tab := runScale(quickParams)[0]
	for _, s := range tab.Series {
		for i := 1; i < len(s.Points); i++ {
			if prev, pt := s.Points[i-1], s.Points[i]; pt.Y <= prev.Y {
				t.Errorf("%s: %g nodes take %.2f µs per allgather, not more than %g nodes' %.2f",
					s.Label, pt.X, pt.Y, prev.X, prev.Y)
			}
		}
	}
}

func TestCollectiveShape(t *testing.T) {
	tab := runCollective(quickParams)[0]
	pull := seriesByLabel(t, tab, "push-pull").Y(64)
	for _, label := range []string{"push-zero", "three-phase"} {
		if v := seriesByLabel(t, tab, label).Y(64); v <= pull {
			t.Errorf("at 64 B %s (%.2f µs) should be slower than push-pull (%.2f)", label, v, pull)
		}
	}
}

func TestAdaptiveDiscardsLess(t *testing.T) {
	_, _, static, _ := adaptivePhases(quickParams, false)
	_, _, adaptive, _ := adaptivePhases(quickParams, true)
	if adaptive >= static {
		t.Errorf("AIMD discarded %d B of pushes, the static BTP %d B; the controller should waste less", adaptive, static)
	}
}
