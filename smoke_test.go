package main

import (
	"testing"

	"pushpull/internal/bench"
	"pushpull/internal/cluster"
	"pushpull/internal/scenario"
)

// TestSmoke is the root package's fast end-to-end check: the paper
// testbed builds, a ping-pong completes with a plausible latency, and
// the scenario engine agrees with the bench harness on the identical
// workload. The paper's figures are regenerated by cmd/pushpull-bench
// and pinned by the shape tests in internal/bench.
func TestSmoke(t *testing.T) {
	w := bench.Workload{Cluster: cluster.DefaultConfig(), Size: 1400, Iters: 20}
	sum := bench.SingleTrip(w)
	if sum.N != 20 {
		t.Fatalf("ping-pong completed %d of 20 iterations", sum.N)
	}
	// The paper's internode 1400 B single trip is on the order of 150 µs
	// on this testbed; a grossly different number means a broken build.
	if sum.TrimmedMean < 10 || sum.TrimmedMean > 10_000 {
		t.Fatalf("implausible 1400 B internode single-trip latency: %.2f µs", sum.TrimmedMean)
	}

	spec := scenario.DefaultSpec()
	spec.Traffic.Messages = 20
	res, err := scenario.Run(spec, scenario.KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("scenario run kept %d of 20 samples", len(res.Samples))
	}
	// Same cluster, same seed, same loop: the two harness entry points
	// must produce identical samples.
	raw := bench.SingleTripSamples(w)
	for i := range raw {
		if raw[i] != res.Samples[i] {
			t.Fatalf("sample %d: bench %.3f µs vs scenario %.3f µs — the harnesses diverged", i, raw[i], res.Samples[i])
		}
	}
}
