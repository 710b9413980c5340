package scenario

import (
	"fmt"
	"strings"
	"testing"

	"pushpull/internal/fault"
)

// smallSweep shrinks a sweep's traffic for test wall time.
func smallSweep(sw Sweep) Sweep {
	if sw.Base.Traffic.Messages > 5 {
		sw.Base.Traffic.Messages = 5
	}
	return sw
}

// axis is a test shorthand for an unlabelled grid axis.
func axis(key, field string, vs ...any) Axis {
	return Axis{Key: key, Field: field, Values: values(vs...)}
}

// TestSweepExpansionOrder: the grid expands its axes in list order
// (seeds innermost), unswept fields keep the base value, and every
// point gets a self-describing name.
func TestSweepExpansionOrder(t *testing.T) {
	sw := Sweep{Name: "order", Base: DefaultSpec()}
	sw.Base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1}
	sw.Base.Traffic = Traffic{Pattern: "pingpong", Size: 64, Messages: 3}
	sw.Grid = Grid{
		Axes: []Axis{
			axis("nodes", "topology.nodes", 2, 4),
			axis("size", "traffic.size", 64, 1400),
		},
		Seeds: []uint64{7, 8},
	}
	if got := sw.Grid.Points(); got != 8 {
		t.Fatalf("Points() = %d, want 8", got)
	}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("expanded %d points, want 8", len(points))
	}
	wantNames := []string{
		"order/nodes=2,size=64,seed=7",
		"order/nodes=2,size=64,seed=8",
		"order/nodes=2,size=1400,seed=7",
		"order/nodes=2,size=1400,seed=8",
		"order/nodes=4,size=64,seed=7",
		"order/nodes=4,size=64,seed=8",
		"order/nodes=4,size=1400,seed=7",
		"order/nodes=4,size=1400,seed=8",
	}
	for i, p := range points {
		if p.Index != i {
			t.Errorf("point %d carries index %d", i, p.Index)
		}
		if p.Spec.Name != wantNames[i] {
			t.Errorf("point %d name = %q, want %q", i, p.Spec.Name, wantNames[i])
		}
		// The unswept fields keep base values.
		if p.Spec.Protocol.PushedBufBytes != sw.Base.Protocol.PushedBufBytes {
			t.Errorf("point %d lost the base pushed-buffer size", i)
		}
		if p.Spec.Topology.LossRate != 0 {
			t.Errorf("point %d invented a loss rate", i)
		}
	}
	if points[5].Spec.Topology.Nodes != 4 || points[5].Spec.Traffic.Size != 64 || points[5].Spec.Seed != 8 {
		t.Errorf("point 5 = %+v, want nodes=4 size=64 seed=8", points[5].Spec)
	}
}

// TestSweepExpansionValidatesEveryPoint: one invalid cell fails the
// whole expansion — a sweep never silently runs half a study.
func TestSweepExpansionValidatesEveryPoint(t *testing.T) {
	sw := Sweep{Name: "invalid", Base: DefaultSpec()}                   // back-to-back base
	sw.Grid = Grid{Axes: []Axis{axis("nodes", "topology.nodes", 2, 8)}} // 8 nodes needs a switch
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "at most 2 nodes") {
		t.Fatalf("Expand() = %v, want the back-to-back node-count error", err)
	}
}

// TestSweepExpansionRejectsInertAxisValues: non-positive nodes/buffer
// values and out-of-range loss rates would otherwise label a point with
// a parameter it did not run, and an empty value would name nothing —
// they must fail the expansion instead of mislabelling a study.
func TestSweepExpansionRejectsInertAxisValues(t *testing.T) {
	cases := []struct {
		name string
		axis Axis
		want string
	}{
		{"zero nodes", axis("nodes", "topology.nodes", 0, 2), "topology.nodes must be positive, got 0"},
		{"zero buffer", axis("buf", "protocol.pushedBufBytes", 0), "protocol.pushedBufBytes must be positive, got 0"},
		{"negative loss", axis("loss", "topology.lossRate", -0.1), "topology.lossRate -0.1 outside [0, 1]"},
		{"loss above one", axis("loss", "topology.lossRate", 1.5), "topology.lossRate 1.5 outside [0, 1]"},
		{"empty algorithm", axis("alg", "traffic.algorithm", ""), "empty label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := Sweep{Name: "inert", Base: DefaultSpec(), Grid: Grid{Axes: []Axis{tc.axis}}}
			if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Expand() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSweepAxisFieldErrors: a misspelt field path, a value of the wrong
// type and a malformed axis fail the expansion with an error naming the
// problem.
func TestSweepAxisFieldErrors(t *testing.T) {
	cases := []struct {
		name string
		axis Axis
		want string
	}{
		{"misspelt field", axis("w", "protocol.btpp2", 1), `unknown field "btpp2"`},
		{"misspelt section", axis("w", "protocl.btp2", 1), `unknown field "protocl"`},
		{"misspelt object field", Axis{Key: "o", Field: "protocol", Values: raw(`{"overlapAk":true}`), Labels: []string{"x"}}, `unknown field "overlapAk"`},
		{"wrong type", axis("n", "topology.nodes", "four"), `axis "n" field "topology.nodes"`},
		{"no key", axis("", "topology.nodes", 2), "key is empty"},
		{"no field", axis("n", "", 2), "field is empty"},
		{"no values", axis("n", "topology.nodes"), "values is empty"},
		{"label count", Axis{Key: "n", Field: "topology.nodes", Values: values(1, 2), Labels: []string{"one"}}, "1 labels for 2 values"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := Sweep{Name: "bad", Base: DefaultSpec(), Grid: Grid{Axes: []Axis{tc.axis}}}
			if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Expand() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	dup := Sweep{Name: "dup", Base: DefaultSpec(), Grid: Grid{Axes: []Axis{
		axis("n", "topology.nodes", 2), axis("n", "traffic.size", 64)}}}
	if _, err := dup.Expand(); err == nil || !strings.Contains(err.Error(), `duplicate key "n"`) {
		t.Errorf("Expand() with a duplicate key = %v, want rejection", err)
	}
}

// TestSweepObjectValueSetsSeveralFields: an object value overlays each
// of its fields on the object at the axis's path, leaving the rest, and
// its label names the point.
func TestSweepObjectValueSetsSeveralFields(t *testing.T) {
	sw := Sweep{Name: "opt", Base: DefaultSpec(), Grid: Grid{Axes: []Axis{{
		Key: "opt", Field: "protocol",
		Values: raw(`{"maskTranslation":false,"userTrigger":false}`, `{"mode":"push-all"}`),
		Labels: []string{"kernel", "all"},
	}}}}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := points[0].Spec, points[1].Spec
	if p0.Protocol.MaskTranslation || p0.Protocol.UserTrigger || !p0.Protocol.OverlapAck || p0.Protocol.Mode != "push-pull" {
		t.Errorf("point 0 protocol = %+v, want masking and trigger off, the rest default", p0.Protocol)
	}
	if p1.Protocol.Mode != "push-all" || !p1.Protocol.MaskTranslation {
		t.Errorf("point 1 protocol = %+v, want push-all with the base's masking", p1.Protocol)
	}
	if p0.Name != "opt/opt=kernel" || p1.Name != "opt/opt=all" {
		t.Errorf("names %q, %q, want the labels", p0.Name, p1.Name)
	}
}

// TestSweepFaultAxisLeavesBaseUnchanged: decoding a plan onto a point
// whose base already holds one must not write through to the base's
// events — every point starts from its own copy.
func TestSweepFaultAxisLeavesBaseUnchanged(t *testing.T) {
	base := DefaultSpec()
	base.Faults = &fault.Plan{Seed: 3, Events: []fault.Event{
		{Kind: fault.KindLinkDown, Node: 1, AtMS: 1, UntilMS: 2},
	}}
	before := string(base.JSON())
	sw := Sweep{Name: "f", Base: base, Grid: Grid{Axes: []Axis{{
		Key: "faults", Field: "faults",
		Values: raw(`{"events":[{"kind":"link-down","node":1,"atMS":5,"untilMS":9}]}`, `null`),
		Labels: []string{"late", "none"},
	}}}}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if after := string(sw.Base.JSON()); after != before {
		t.Fatalf("expansion changed the base:\n%s\nwant\n%s", after, before)
	}
	if f := points[0].Spec.Faults; f == nil || f.Seed != 3 || len(f.Events) != 1 || f.Events[0].AtMS != 5 {
		t.Errorf("point 0 plan = %+v, want the base seed with the axis's event", f)
	}
	if points[1].Spec.Faults != nil {
		t.Errorf("point 1 plan = %+v, want null to clear it", points[1].Spec.Faults)
	}
}

// oversizedSweep is a 1.4 KB sweep file of six 60-value axes: 60^6
// points, which once made the expansion preallocate terabytes.
func oversizedSweep() []byte {
	var vals []string
	for i := 1; i <= 60; i++ {
		vals = append(vals, fmt.Sprint(i))
	}
	list := "[" + strings.Join(vals, ",") + "]"
	var axes []string
	for _, f := range []string{"topology.nodes", "topology.procsPerNode", "traffic.size", "traffic.messages", "protocol.btp1", "protocol.btp2"} {
		axes = append(axes, fmt.Sprintf(`{"key":%q,"field":%q,"values":%s}`, f[strings.Index(f, ".")+1:], f, list))
	}
	return []byte(`{"name":"huge","grid":{"axes":[` + strings.Join(axes, ",") + `]}}`)
}

// TestParseSweepRejectsOversizedGrid: a grid past MaxPoints is a
// field-level error, not an out-of-memory crash.
func TestParseSweepRejectsOversizedGrid(t *testing.T) {
	_, err := ParseSweep(oversizedSweep())
	if err == nil || !strings.Contains(err.Error(), "more than 65536 points") {
		t.Fatalf("ParseSweep(60^6 grid) = %v, want the point-limit error", err)
	}
}

// The algorithm field expands onto Traffic.Algorithm with labelled
// point names, and a base pattern that takes no algorithm fails
// expansion.
func TestSweepAlgorithmAxis(t *testing.T) {
	sw := Sweep{Name: "alg", Base: DefaultSpec()}
	sw.Base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1, Policy: "symmetric"}
	sw.Base.Traffic = Traffic{Pattern: "allreduce", Size: 256, Messages: 2}
	sw.Grid = Grid{Axes: []Axis{axis("alg", "traffic.algorithm", "tree", "ring")}}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expanded %d points, want 2", len(points))
	}
	for i, wantAlg := range []string{"tree", "ring"} {
		if got := points[i].Spec.Traffic.Algorithm; got != wantAlg {
			t.Errorf("point %d algorithm = %q, want %q", i, got, wantAlg)
		}
		wantName := "alg/alg=" + wantAlg
		if points[i].Spec.Name != wantName {
			t.Errorf("point %d name = %q, want %q", i, points[i].Spec.Name, wantName)
		}
	}

	sw.Base.Traffic = Traffic{Pattern: "pingpong", Size: 256, Messages: 2}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "does not take an algorithm") {
		t.Errorf("Expand() on a pattern without an algorithm axis = %v, want rejection", err)
	}
}

// TestSweepWorkerCountDoesNotChangeResults is the subsystem's core
// guarantee: 1 worker and many workers produce byte-identical sweep
// results, aggregate digest included. Running this under -race also
// checks the pool for data races.
func TestSweepWorkerCountDoesNotChangeResults(t *testing.T) {
	sw, err := SweepByName("smoke-grid")
	if err != nil {
		t.Fatal(err)
	}
	sw = smallSweep(sw)
	serial, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(sw, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Digest != parallel.Digest {
		t.Fatalf("worker count changed the aggregate digest:\n  1 worker:  %s\n  8 workers: %s",
			serial.Digest, parallel.Digest)
	}
	if string(serial.JSON()) != string(parallel.JSON()) {
		t.Fatal("same digest but different sweep encodings")
	}
	if serial.Failed != 0 {
		t.Fatalf("%d of %d smoke-grid points failed", serial.Failed, serial.Points)
	}
	if serial.Points != sw.Grid.Points() {
		t.Fatalf("ran %d points, grid says %d", serial.Points, sw.Grid.Points())
	}
}

// TestSweepReportsPointFailuresInPlace: a cell whose run fails (here: a
// virtual-time budget exhausted immediately) is reported in its grid
// slot with the error, and healthy cells still produce results.
func TestSweepReportsPointFailuresInPlace(t *testing.T) {
	base := DefaultSpec()
	base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1}
	base.Traffic = Traffic{Pattern: "pingpong", Size: 64, Messages: 3}
	base.MaxVirtualMS = 0.0001 // nothing completes inside this budget
	sw := Sweep{Name: "doomed", Base: base, Grid: Grid{Seeds: []uint64{1, 2}}}
	res, err := RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", res.Failed)
	}
	for i, pr := range res.Results {
		if pr.Index != i {
			t.Errorf("result %d carries index %d", i, pr.Index)
		}
		if pr.Result != nil || !strings.Contains(pr.Error, "budget") || !pr.BudgetExhausted {
			t.Errorf("point %d: Result=%v Error=%q BudgetExhausted=%v, want a flagged virtual-budget error and no result", i, pr.Result, pr.Error, pr.BudgetExhausted)
		}
	}
	// Determinism holds for failures too.
	again, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != res.Digest {
		t.Fatalf("failure digests differ across worker counts: %s vs %s", res.Digest, again.Digest)
	}
}

// TestSweepPointResultsCarryTheirParameters: downstream analysis reads
// the swept parameters off each PointResult, not by re-deriving the grid.
func TestSweepPointResultsCarryTheirParameters(t *testing.T) {
	sw, err := SweepByName("smoke-grid")
	if err != nil {
		t.Fatal(err)
	}
	sw = smallSweep(sw)
	res, err := RunSweep(sw, 0) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Results {
		spec := points[i].Spec
		if pr.Nodes != spec.Topology.Nodes || pr.Size != spec.Traffic.Size ||
			pr.Seed != spec.Seed || pr.Name != spec.Name {
			t.Errorf("point %d result parameters %+v do not match its spec", i, pr)
		}
		if pr.Result == nil || pr.Result.Digest == "" {
			t.Errorf("point %d has no sealed result", i)
		}
		if pr.Result != nil && pr.Result.Seed != spec.Seed {
			t.Errorf("point %d ran seed %d, spec says %d", i, pr.Result.Seed, spec.Seed)
		}
	}
}

// TestSweepJSONRoundTrip: sweep specs are files; rendering and parsing
// one back must be the identity, and parsing overlays base defaults.
func TestSweepJSONRoundTrip(t *testing.T) {
	for _, sw := range BuiltinSweeps() {
		back, err := ParseSweep(sw.JSON())
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		if string(back.JSON()) != string(sw.JSON()) {
			t.Errorf("%s: JSON round trip changed the sweep", sw.Name)
		}
	}
	// A sparse sweep file inherits the testbed defaults in its base.
	sparse, err := ParseSweep([]byte(`{"name":"sparse","base":{"topology":{"kind":"switch","nodes":2},"traffic":{"pattern":"pingpong","size":64,"messages":3}},"grid":{"axes":[{"key":"size","field":"traffic.size","values":[64,128]}],"seeds":[1,2,3]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Base.Protocol.BTP != DefaultSpec().Protocol.BTP {
		t.Errorf("sparse sweep lost protocol defaults: %+v", sparse.Base.Protocol)
	}
	if sparse.Grid.Points() != 6 {
		t.Errorf("sparse sweep expands to %d points, want 6", sparse.Grid.Points())
	}
}

// TestParseSweepStrict: unknown fields in the sweep, its base spec or
// its grid, and data after the sweep, are errors that name the problem.
func TestParseSweepStrict(t *testing.T) {
	const base = `"base":{"topology":{"kind":"switch","nodes":2},"traffic":{"pattern":"pingpong","size":64,"messages":3}}`
	for _, tc := range []struct {
		name, in, want string
	}{
		{"unknown field", `{"name":"s","bogus":1,` + base + `,"grid":{"seeds":[1]}}`, `"bogus"`},
		{"stale parallelWorkers", `{"name":"s","parallelWorkers":2,` + base + `,"grid":{"seeds":[1]}}`, `"parallelWorkers"`},
		{"stale parallelWorkers in base", `{"name":"s","base":{"parallelWorkers":2},"grid":{"seeds":[1]}}`, `"parallelWorkers"`},
		{"unknown grid axis", `{"name":"s",` + base + `,"grid":{"seed":[1]}}`, `"seed"`},
		{"trailing data", `{"name":"s",` + base + `,"grid":{"seeds":[1]}}]`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSweep([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSweep(%s) = %v, want error containing %s", tc.in, err, tc.want)
			}
		})
	}
}

// BenchmarkSweepSerial runs the 8-point smoke grid on one worker: the
// whole-run entry point for allocation profiles
// (`go test -run '^$' -bench SweepSerial -memprofile mem.out ./internal/scenario`).
// The aggregate digest is asserted on every iteration.
func BenchmarkSweepSerial(b *testing.B) {
	sw, err := SweepByName("smoke-grid")
	if err != nil {
		b.Fatal(err)
	}
	var digest string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSweep(sw, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("%d of %d points failed", res.Failed, res.Points)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			b.Fatalf("digest changed between iterations: %s vs %s", digest, res.Digest)
		}
		b.ReportMetric(float64(res.Points), "points")
	}
}
