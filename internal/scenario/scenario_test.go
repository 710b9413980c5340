package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// small returns spec with its traffic scaled down for test wall time.
func small(s Spec) Spec {
	if s.Traffic.Messages > 20 {
		s.Traffic.Messages = 20
	}
	if s.Traffic.Pattern == "wavefront" {
		s.Traffic.Messages = 2
		s.Traffic.Depth = 3
	}
	if s.Traffic.Pattern == "earlylate" {
		s.Traffic.Messages = 5
	}
	return s
}

// TestBuiltinScenariosRun drives every registered scenario end to end:
// no deadlocks, every message delivered, a sane result.
func TestBuiltinScenariosRun(t *testing.T) {
	specs := Builtin()
	if len(specs) < 8 {
		t.Fatalf("need at least 8 builtin scenarios (3 paper-derived + 5 new patterns), have %d", len(specs))
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		spec := small(spec)
		t.Run(spec.Name, func(t *testing.T) {
			if seen[spec.Name] {
				t.Fatalf("duplicate scenario name %q", spec.Name)
			}
			seen[spec.Name] = true
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Receives == 0 {
				t.Error("scenario completed zero receives")
			}
			if res.Bytes == 0 {
				t.Error("scenario delivered zero payload bytes")
			}
			if res.VirtualUS <= 0 {
				t.Errorf("virtual time %v not positive", res.VirtualUS)
			}
			if res.Latency.N == 0 || res.Latency.TrimmedMean <= 0 {
				t.Errorf("no usable latency samples: %+v", res.Latency)
			}
			if res.Digest == "" {
				t.Error("result not sealed with a digest")
			}
			if res.Samples != nil {
				t.Error("samples kept without KeepSamples")
			}
		})
	}
	// The acceptance floor: the five genuinely new workload shapes all
	// have a registered scenario.
	for _, pattern := range []string{"hotspot", "permutation", "bursty", "pipeline", "wavefront"} {
		found := false
		for _, spec := range specs {
			if spec.Traffic.Pattern == pattern {
				found = true
			}
		}
		if !found {
			t.Errorf("no builtin scenario exercises pattern %q", pattern)
		}
	}
}

// TestDeterminismSameSeed is the engine's core guarantee: an identical
// spec (same seed) produces a byte-identical result, digest included —
// samples, virtual times, event counts, everything.
func TestDeterminismSameSeed(t *testing.T) {
	for _, name := range []string{"hotspot", "wavefront", "lossy-permutation", "hub-hotspot"} {
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = small(spec)
			a, err := Run(spec, KeepSamples())
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(spec, KeepSamples())
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest {
				t.Fatalf("same spec, same seed, different digests:\n  %s\n  %s", a.Digest, b.Digest)
			}
			aj, bj := string(a.JSON()), string(b.JSON())
			if aj != bj {
				t.Fatalf("same digest but different encodings:\n%s\n---\n%s", aj, bj)
			}
		})
	}
}

// TestDeterminismDifferentSeeds: changing only the seed must change the
// event interleavings. The seed steers the traffic shape (wavefront,
// permutation) and the modelled nondeterminism (frame loss, hub
// backoff), so on these scenarios the runs must diverge.
func TestDeterminismDifferentSeeds(t *testing.T) {
	for _, name := range []string{"wavefront", "lossy-permutation"} {
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = small(spec)
			a, err := Run(spec, KeepSamples())
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = spec.Seed + 1
			b, err := Run(spec, KeepSamples())
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest == b.Digest {
				t.Fatalf("seeds %d and %d produced identical runs (digest %s)", a.Seed, b.Seed, a.Digest)
			}
		})
	}
}

// TestSpecJSONRoundTrip: rendering a spec and parsing it back must be
// the identity, and parsing overlays onto the paper defaults.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range Builtin() {
		back, err := ParseSpec(spec.JSON())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if string(back.JSON()) != string(spec.JSON()) {
			t.Errorf("%s: JSON round trip changed the spec", spec.Name)
		}
	}

	// A sparse spec inherits the testbed defaults.
	sparse, err := ParseSpec([]byte(`{"name":"tweak","traffic":{"pattern":"pingpong","size":64,"messages":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultSpec()
	if sparse.Protocol.BTP != def.Protocol.BTP || !sparse.Protocol.MaskTranslation {
		t.Errorf("sparse spec lost protocol defaults: %+v", sparse.Protocol)
	}
	// An explicit zero still overrides.
	zeroed, err := ParseSpec([]byte(`{"protocol":{"btp1":0,"btp2":0,"btp":0,"overlapAck":false},"traffic":{"pattern":"pingpong","size":64,"messages":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if zeroed.Protocol.BTP != 0 || zeroed.Protocol.OverlapAck {
		t.Errorf("explicit zeros did not override defaults: %+v", zeroed.Protocol)
	}
}

// TestParseSpecStrict: a misspelled or retired field, at any depth, or
// data after the spec is an error that names the problem — never a
// silently ignored setting.
func TestParseSpecStrict(t *testing.T) {
	const traffic = `"traffic":{"pattern":"pingpong","size":64,"messages":3}`
	for _, tc := range []struct {
		name, in, want string
	}{
		{"unknown field", `{"bogus":1,` + traffic + `}`, `"bogus"`},
		{"stale parallelWorkers", `{"parallelWorkers":2,` + traffic + `}`, `"parallelWorkers"`},
		{"misspelled parallelWorker", `{"parallelWorker":2,` + traffic + `}`, `"parallelWorker"`},
		{"unknown nested field", `{"topology":{"kind":"switch","nodes":4,"lossPct":0.1},` + traffic + `}`, `"lossPct"`},
		{"unknown fault field", `{"faults":{"events":[],"bogus":1},` + traffic + `}`, `"bogus"`},
		{"trailing data", `{` + traffic + `}x`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpec(%s) = %v, want error containing %s", tc.in, err, tc.want)
			}
		})
	}
}

// TestParseSpecRejectsInertValues: values the lowering cannot honour
// fail parsing with an error naming the field — a negative node count
// once ran as the 2-rank default, and a loss rate above 1 burned the
// whole virtual budget.
func TestParseSpecRejectsInertValues(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{`{"topology":{"nodes":-3}}`, "topology.nodes must be positive, got -3"},
		{`{"topology":{"procsPerNode":-1}}`, "topology.procsPerNode must be positive, got -1"},
		{`{"protocol":{"gbnWindow":-8}}`, "protocol.gbnWindow must be positive, got -8"},
		{`{"protocol":{"rtoMs":-2}}`, "protocol.rtoMs must be positive, got -2"},
		{`{"protocol":{"pushedBufBytes":-1}}`, "protocol.pushedBufBytes must be positive, got -1"},
		{`{"topology":{"lossRate":1.5}}`, "topology.lossRate 1.5 outside [0, 1]"},
	} {
		if _, err := ParseSpec([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%s) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
}

// TestSpecValidation rejects the junk a CLI user can type.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad mode", func(s *Spec) { s.Protocol.Mode = "push-some" }, "unknown protocol mode"},
		{"bad pattern", func(s *Spec) { s.Traffic.Pattern = "saturate" }, "unknown traffic pattern"},
		{"bad topology", func(s *Spec) { s.Topology.Kind = "torus" }, "unknown topology kind"},
		{"bad policy", func(s *Spec) { s.Topology.Policy = "adaptive" }, "unknown interrupt policy"},
		{"zero size", func(s *Spec) { s.Traffic.Size = 0 }, "size must be positive"},
		{"zero messages", func(s *Spec) { s.Traffic.Messages = 0 }, "messages must be positive"},
		{"hub rails", func(s *Spec) { s.Topology.Kind = "hub"; s.Topology.Rails = 2 }, "multi-rail"},
		{"one process", func(s *Spec) { s.Topology.Nodes = 1; s.Topology.ProcsPerNode = 1 }, "at least 2"},
		{"back-to-back too big", func(s *Spec) { s.Topology.Nodes = 8 }, "at most 2 nodes"},
		{"algorithm on plain pattern", func(s *Spec) { s.Traffic.Algorithm = "ring" }, "does not take an algorithm"},
		{"bad collective algorithm", func(s *Spec) {
			s.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1}
			s.Traffic = Traffic{Pattern: "allreduce", Size: 1024, Messages: 5, Algorithm: "quantum"}
		}, "no algorithm \"quantum\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := DefaultSpec()
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestResultJSONShape guards the documented result schema: the fields
// downstream tooling parses must stay present under their JSON names.
func TestResultJSONShape(t *testing.T) {
	spec, err := ByName("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(small(spec), KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(res.JSON(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"scenario", "pattern", "seed", "ranks", "virtualUS", "receives",
		"bytes", "throughputMBps", "latency", "endpoints", "events",
		"discardedBytes", "samples", "digest",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("result JSON is missing documented key %q", key)
		}
	}
}

// TestHotspotAppliesBufferPressure: the all-to-one shape must actually
// stress the sink's pushed buffer — the park/discard machinery (or
// go-back-N refusals) has to fire, otherwise the pattern is not doing
// its job.
func TestHotspotAppliesBufferPressure(t *testing.T) {
	spec, err := ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	spec.Traffic.Messages = 20
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events["park"] == 0 && res.Events["discard"] == 0 && res.Events["refuse"] == 0 {
		t.Errorf("hotspot run never pressured the pushed buffer; events: %v", res.Events)
	}
	// Seven senders × 20 messages, plus no losses: exact delivery count.
	var sunk uint64
	for _, ep := range res.Endpoints {
		if ep.Node == 0 && ep.Proc == 0 {
			sunk = ep.Received
		}
	}
	if sunk != 7*20 {
		t.Errorf("sink received %d messages, want %d", sunk, 7*20)
	}
}

// TestPermutationIsFixedPointFree: every rank must talk to somebody
// else, for any seed and any rank count.
func TestPermutationIsFixedPointFree(t *testing.T) {
	for p := 2; p <= 9; p++ {
		for seed := uint64(0); seed < 50; seed++ {
			perm := permutationOf(p, seed)
			used := make([]bool, p)
			for i, v := range perm {
				if v == i {
					t.Fatalf("p=%d seed=%d: rank %d maps to itself (%v)", p, seed, i, perm)
				}
				if used[v] {
					t.Fatalf("p=%d seed=%d: %v is not a permutation", p, seed, perm)
				}
				used[v] = true
			}
		}
	}
}

// TestWavefrontIsDataDependent: the wavefront's plan must vary with the
// seed (it is derived from payload bytes), and the run must match its
// plan exactly — the mismatch check is what makes the data dependence
// falsifiable.
func TestWavefrontIsDataDependent(t *testing.T) {
	p := wfParams{ranks: 6, root: 0, width: 3, fanout: 2, depth: 4, minSize: 64, maxSize: 2048}
	_, msgs1, bytes1 := p.plan(1)
	_, msgs2, bytes2 := p.plan(2)
	if msgs1 != msgs2 {
		t.Errorf("message count should depend only on shape: %d vs %d", msgs1, msgs2)
	}
	if bytes1 == bytes2 {
		t.Errorf("byte totals for different seeds agree (%d); sizes are not data-derived", bytes1)
	}

	spec, err := ByName("wavefront")
	if err != nil {
		t.Fatal(err)
	}
	spec = small(spec)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := wavefrontParams(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, wantMsgs, wantBytes := wp.plan(spec.Seed)
	if res.Bytes != wantBytes {
		t.Errorf("run delivered %d bytes, plan predicts %d", res.Bytes, wantBytes)
	}
	var delivered uint64
	for _, ep := range res.Endpoints {
		delivered += ep.Received
	}
	if delivered != uint64(wantMsgs) {
		t.Errorf("run delivered %d messages, plan predicts %d", delivered, wantMsgs)
	}
}

// TestBurstyIdlesTheWire: with long off periods the run must take at
// least the sum of the idle gaps — i.e. the sleeps really happen.
func TestBurstyIdlesTheWire(t *testing.T) {
	spec, err := ByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	spec.Traffic.Messages = 32
	spec.Traffic.BurstLen = 8
	spec.Traffic.BurstIdleUS = 10_000
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 32 messages in bursts of 8 → 3 idle gaps of 10 ms each.
	if res.VirtualUS < 30_000 {
		t.Errorf("bursty run finished in %.0f µs; the 3×10 ms idle gaps did not happen", res.VirtualUS)
	}
}

// TestRunConfigSeedReachesTraffic: a Result must be reproducible from
// its own output, so seed-derived traffic has to draw from the cluster
// seed RunConfig reports — not from a zero-valued spec field.
func TestRunConfigSeedReachesTraffic(t *testing.T) {
	spec, err := ByName("wavefront")
	if err != nil {
		t.Fatal(err)
	}
	spec = small(spec)
	spec.Seed = 9
	viaRun, err := Run(spec, KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.clusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 0 // RunConfig must take the seed from cfg, not from here
	viaRunConfig, err := RunConfig(cfg, spec, KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	if viaRun.Digest != viaRunConfig.Digest {
		t.Fatalf("RunConfig ignored the cluster seed for traffic derivation:\n  Run:       %s\n  RunConfig: %s",
			viaRun.Digest, viaRunConfig.Digest)
	}
}

// TestWavefrontRejectsBadSizes: explicit out-of-range size bounds are
// errors, not silent substitutions.
func TestWavefrontRejectsBadSizes(t *testing.T) {
	spec, err := ByName("wavefront")
	if err != nil {
		t.Fatal(err)
	}
	spec = small(spec)
	spec.Traffic.MinSize = 10 // below the 17-byte payload header
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "payload header") {
		t.Errorf("tiny minSize: got %v, want a payload-header error", err)
	}
	spec.Traffic.MinSize = 64
	spec.Traffic.MaxSize = 32
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "below minSize") {
		t.Errorf("inverted bounds: got %v, want a below-minSize error", err)
	}
}

// TestTightBudgetAcceptsCompletedRun: a run that finishes inside its
// budget must pass even when the budget is far below the go-back-N
// RTO — stale cancelled timer events must not read as pending work or
// drag VirtualUS an RTO past the last delivery.
func TestTightBudgetAcceptsCompletedRun(t *testing.T) {
	spec := DefaultSpec()
	spec.Traffic = Traffic{Pattern: "pingpong", Size: 64, Messages: 1}
	spec.MaxVirtualMS = 5 // well under the 150 ms RTO
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("completed run reported as livelocked: %v", err)
	}
	if res.VirtualUS >= 5000 {
		t.Errorf("VirtualUS = %.1f µs; the cancelled RTO tail is back", res.VirtualUS)
	}
}

// TestEagerOverflowScenarioCompletes is the livelock regression pinned
// by the per-channel session redesign. The builtin "eager-overflow"
// scenario — a seed-42 convergent wavefront whose data-derived sizes
// fall below the 760 B BTP, so refused fully-eager fragments meet a full
// pushed buffer — permanently livelocked the old shared per-node-pair
// go-back-N stream (the refused fragment blocked the pull data that
// would have freed the buffer; the RTO retransmitted forever). With one
// go-back-N lane set per channel, eager, pull and control traffic can
// never block each other, and the run must complete well inside its
// pinned 3000 ms budget. The digest is additionally pinned with every
// other builtin in testdata/digests.json.
func TestEagerOverflowScenarioCompletes(t *testing.T) {
	spec, err := ByName("eager-overflow")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || spec.MaxVirtualMS != 3000 {
		t.Fatalf("regression spec drifted: seed=%d budget=%v", spec.Seed, spec.MaxVirtualMS)
	}
	res, err := Run(spec)
	if IsBudgetError(err) {
		t.Fatalf("eager-overflow exhausted its virtual-time budget again — per-channel lane isolation regressed: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest == "" {
		t.Fatal("result not sealed with a digest")
	}
	// The run needs exactly one RTO tail (~151.6 virtual ms); anything
	// close to the budget means refusals are chaining again.
	if res.VirtualUS > 1_000_000 {
		t.Errorf("eager-overflow took %.0f virtual µs; refusal recovery is chaining (budget %g ms)", res.VirtualUS, spec.MaxVirtualMS)
	}
	if ev := res.Events["refuse"]; ev == 0 {
		t.Error("scenario exercised no refusals — it no longer pins the eager-overflow path")
	}
}

// TestAdaptiveScenarioInstallsController: the adaptive spec must behave
// differently from the identical static spec (the AIMD controller is
// actually wired in).
func TestAdaptiveScenarioInstallsController(t *testing.T) {
	spec, err := ByName("wavefront-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	spec = small(spec)
	adaptive, err := Run(spec, KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	spec.Protocol.Adaptive = false
	static, err := Run(spec, KeepSamples())
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Digest == static.Digest {
		t.Error("adaptive and static runs are identical; the AIMD controller is not installed")
	}
}
