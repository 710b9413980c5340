package main

import (
	"testing"

	"pushpull/internal/bench"
	"pushpull/internal/cluster"
	"pushpull/internal/scenario"
)

// TestSmoke is the root package's fast end-to-end check: the paper
// testbed builds, a ping-pong completes with a plausible latency, and
// the spec's lowering agrees with the hand-built testbed config on the
// identical workload. The paper's figures are regenerated by
// cmd/pushpull-bench and pinned by the shape tests in internal/bench.
func TestSmoke(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Traffic.Messages = 20
	sum := bench.Latency(spec)
	if sum.N != 20 {
		t.Fatalf("ping-pong completed %d of 20 iterations", sum.N)
	}
	// The paper's internode 1400 B single trip is on the order of 150 µs
	// on this testbed; a grossly different number means a broken build.
	if sum.TrimmedMean < 10 || sum.TrimmedMean > 10_000 {
		t.Fatalf("implausible 1400 B internode single-trip latency: %.2f µs", sum.TrimmedMean)
	}

	res, err := scenario.Run(spec, scenario.KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 20 {
		t.Fatalf("scenario run kept %d of 20 samples", len(res.Samples))
	}
	// Same cluster, same seed, same loop: the spec's lowering and the
	// testbed's cluster.DefaultConfig must produce identical samples.
	raw, err := scenario.RunConfig(cluster.DefaultConfig(), spec, scenario.KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw.Samples {
		if raw.Samples[i] != res.Samples[i] {
			t.Fatalf("sample %d: config %.3f µs vs spec %.3f µs — the harnesses diverged", i, raw.Samples[i], res.Samples[i])
		}
	}
}
