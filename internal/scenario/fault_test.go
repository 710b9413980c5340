package scenario

import (
	"errors"
	"strings"
	"testing"

	"pushpull/internal/fault"
	"pushpull/internal/pushpull"
)

// TestDeadLinkAllReduceFailsFast pins the end-to-end failure chain: a
// collective over a permanently dead link must surface the structured
// unreachable-peer error through comm.Op → coll.Rank.AllReduce → Run within
// the retransmission budget — not stall until the virtual-time budget
// kills the run as a generic livelock.
func TestDeadLinkAllReduceFailsFast(t *testing.T) {
	s := DefaultSpec()
	s.Name = "dead-link-allreduce"
	s.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	s.Traffic = Traffic{Pattern: "allreduce", Size: 1024, Messages: 5, Algorithm: "recursive-doubling"}
	s.Protocol.RTOMs = 2
	s.Protocol.AdaptiveRTO = true
	s.Protocol.MaxRetries = 5
	s.MaxVirtualMS = 2000
	s.Faults = &fault.Plan{Events: []fault.Event{
		// Down before traffic starts and past any reachable virtual end.
		{Kind: fault.KindLinkDown, Node: 2, AtMS: 0, UntilMS: 10_000},
	}}

	res, err := Run(s)
	if err == nil {
		t.Fatalf("Run completed (%v) over a permanently dead link", res.Digest)
	}
	if !IsPeerUnreachable(err) {
		t.Fatalf("Run error = %v, want an unreachable-peer failure", err)
	}
	if IsBudgetError(err) {
		t.Fatalf("Run error = %v: the virtual budget fired before the retransmission budget", err)
	}
	var pe *pushpull.PeerUnreachableError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want a wrapped *PeerUnreachableError naming the dead pair", err)
	}
	if pe.Node != 2 && pe.Peer != 2 {
		t.Errorf("failure names pair (%d,%d); the dead link is node 2's", pe.Node, pe.Peer)
	}
}

// TestDeadLinkFailsFastDeterministically pins that the failure itself
// is reproducible: same spec, same diagnosis, same failed pair.
func TestDeadLinkFailsFastDeterministically(t *testing.T) {
	run := func() string {
		s := DefaultSpec()
		s.Name = "dead-link-pingpong"
		s.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 50}
		s.Protocol.RTOMs = 2
		s.Protocol.AdaptiveRTO = true
		s.Protocol.MaxRetries = 4
		s.MaxVirtualMS = 2000
		s.Faults = &fault.Plan{Events: []fault.Event{
			{Kind: fault.KindLinkDown, Node: 1, AtMS: 0.5, UntilMS: 10_000},
		}}
		_, err := Run(s)
		if err == nil {
			t.Fatal("Run completed over a permanently dead link")
		}
		if !IsPeerUnreachable(err) {
			t.Fatalf("Run error = %v, want unreachable-peer", err)
		}
		return err.Error()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("failure not reproducible:\n  %s\n  %s", a, b)
	}
}

// TestTransientBlackoutRecoversByteExactly pins the recovery story: a
// blackout shorter than the retransmission budget degrades the run but
// completes it, byte-identically across repeats, with the degradation
// section accounting for the outage.
func TestTransientBlackoutRecoversByteExactly(t *testing.T) {
	spec, err := ByName("blackout-recovery")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(spec)
	if err != nil {
		t.Fatalf("blackout-recovery failed: %v", err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatalf("second run failed: %v", err)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("transient blackout not byte-exact: %s vs %s", r1.Digest, r2.Digest)
	}
	d := r1.Degradation
	if d == nil {
		t.Fatal("fault run produced no degradation section")
	}
	if d.FailedOps != 0 {
		t.Errorf("failedOps = %d: the blackout is shorter than the budget, nothing may fail", d.FailedOps)
	}
	if d.Timeouts == 0 || d.Retransmissions == 0 {
		t.Errorf("blackout left no transport scars: timeouts=%d retransmissions=%d", d.Timeouts, d.Retransmissions)
	}
	if d.BackoffRTO == nil || d.BackoffRTO.Max <= d.BackoffRTO.Min {
		t.Errorf("backoff summary %+v shows no exponential growth", d.BackoffRTO)
	}
	if d.RecoveryUS <= 0 {
		t.Errorf("recoveryUS = %g: the run must outlive the last fault window", d.RecoveryUS)
	}
	var downtime float64
	for _, nd := range d.Nodes {
		downtime += nd.DowntimeUS
	}
	if downtime != 8000 {
		t.Errorf("total scheduled downtime = %g µs, want the plan's 8000", downtime)
	}
	if r1.FrameLoss == nil || r1.FrameLoss.LinkFaultLost == 0 {
		t.Errorf("frame-loss section missing the blackout's casualties: %+v", r1.FrameLoss)
	}
}

// TestDegradationNilWithoutPlan pins the digest-stability contract for
// pre-existing scenarios: no fault plan, no degradation section — and
// the observational frame-loss section stays out of the digest.
func TestDegradationNilWithoutPlan(t *testing.T) {
	spec, err := ByName("paper-internode-pingpong")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation != nil {
		t.Errorf("unfaulted run grew a degradation section: %+v", res.Degradation)
	}
	if res.FrameLoss == nil {
		t.Error("networked run missing the frame-loss section")
	}
	// Re-seal (same samples) with the frame-loss section forcibly
	// cleared: the digest may not move, proving it was never part of the
	// sealed encoding.
	withFL := res.Digest
	res.FrameLoss = nil
	res.seal(res.Samples, true)
	if res.Digest != withFL {
		t.Errorf("frame-loss section leaked into the digest: %s vs %s", res.Digest, withFL)
	}
}

// TestFaultSweepAxis pins the fault axis: a misspelt plan field fails
// the expansion whole, and every cell of the builtin fault-smoke grid
// labels itself with its plan.
func TestFaultSweepAxis(t *testing.T) {
	sw := Sweep{Base: DefaultSpec(), Name: "bad"}
	sw.Base.Traffic = Traffic{Pattern: "pingpong", Size: 100, Messages: 1}
	sw.Grid = Grid{Axes: []Axis{{Key: "faults", Field: "faults",
		Values: raw(`null`, `{"evnts":[]}`), Labels: []string{"none", "typo"}}}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), `"evnts"`) {
		t.Errorf("Expand() = %v, want the misspelt plan field named", err)
	}

	fs, err := SweepByName("fault-smoke")
	if err != nil {
		t.Fatal(err)
	}
	points, err := fs.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("fault-smoke expanded to %d points, want 8", len(points))
	}
	for _, pt := range points {
		none := strings.Contains(pt.Spec.Name, "/faults=none,")
		if !strings.Contains(pt.Spec.Name, "/faults=") {
			t.Errorf("point %q lost its fault-plan label", pt.Spec.Name)
		}
		if none && pt.Spec.Faults != nil {
			t.Errorf("point %q: plan none left a plan armed", pt.Spec.Name)
		}
		if !none && pt.Spec.Faults == nil {
			t.Errorf("point %q armed no plan", pt.Spec.Name)
		}
	}
}
