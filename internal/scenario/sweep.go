package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"pushpull/internal/fault"
	"pushpull/internal/strictjson"
)

// Sweep is a declarative parameter study: one base Spec expanded over a
// cartesian grid of parameter axes. Like Spec it is a plain struct with
// a stable JSON encoding, so sweeps are files too. Each grid point is an
// independent scenario run with its own engine; the expansion order —
// and therefore the result order and the aggregate digest — is fixed by
// the spec alone, never by scheduling.
type Sweep struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Base supplies every field the grid does not vary.
	Base Spec `json:"base"`
	Grid Grid `json:"grid"`
}

// Grid names the swept axes. The expansion is the cartesian product of
// Axes in list order (the first outermost) with Seeds innermost; no
// seeds keeps the base seed.
type Grid struct {
	Axes []Axis `json:"axes,omitempty"`
	// Seeds varies Spec.Seed.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// Axis varies one spec field. Each value is JSON decoded strictly onto
// the point's spec at Field, a dotted path of JSON field names
// ("protocol.btp2"), so a misspelt field is an error naming it. An
// object value overlays several fields of the object at Field at once
// (Field "protocol" with {"maskTranslation":false,"userTrigger":false}).
type Axis struct {
	// Key names the axis in point names: key=label.
	Key   string `json:"key"`
	Field string `json:"field"`
	// Values are the raw JSON values, in grid order.
	Values []json.RawMessage `json:"values"`
	// Labels, when set, name the values one for one; otherwise a
	// value's label is its JSON text, with strings unquoted.
	Labels []string `json:"labels,omitempty"`
}

// MaxPoints bounds a grid's expansion: a bigger grid is rejected before
// anything is allocated for it.
const MaxPoints = 1 << 16

// Point is one expanded grid cell: a complete runnable Spec plus its
// position in grid order.
type Point struct {
	Index int
	Spec  Spec
}

// Points reports the expansion size without expanding. It stops
// multiplying once the product exceeds MaxPoints, so any result above
// MaxPoints only means "too many" and the product cannot overflow.
func (g Grid) Points() int {
	n := max(len(g.Seeds), 1)
	for _, ax := range g.Axes {
		if n > MaxPoints {
			break
		}
		n *= len(ax.Values)
	}
	return n
}

// Label names value i of the axis in point names.
func (ax Axis) Label(i int) string {
	if len(ax.Labels) > 0 {
		return ax.Labels[i]
	}
	var s string
	if json.Unmarshal(ax.Values[i], &s) == nil {
		return s
	}
	var b bytes.Buffer
	if json.Compact(&b, ax.Values[i]) != nil {
		return string(ax.Values[i])
	}
	return b.String()
}

// apply decodes value i onto s at the axis's field path by wrapping it
// in one JSON object per path element.
func (ax Axis) apply(s *Spec, i int) error {
	path := strings.Split(ax.Field, ".")
	var b bytes.Buffer
	for _, name := range path {
		key, _ := json.Marshal(name)
		b.WriteByte('{')
		b.Write(key)
		b.WriteByte(':')
	}
	b.Write(ax.Values[i])
	b.WriteString(strings.Repeat("}", len(path)))
	return strictjson.Unmarshal(b.Bytes(), s)
}

// clone copies s deeply enough that decoding onto the copy never writes
// through to s: Faults is the only reference the spec holds.
func (s Spec) clone() Spec {
	if s.Faults != nil {
		plan := *s.Faults
		plan.Events = append([]fault.Event(nil), plan.Events...)
		s.Faults = &plan
	}
	return s
}

// validate checks the grid's shape: every axis names a key, a field and
// at least one value, labels match values, and the product stays within
// MaxPoints.
func (g Grid) validate() error {
	keys := make(map[string]bool, len(g.Axes))
	for i, ax := range g.Axes {
		switch {
		case ax.Key == "":
			return fmt.Errorf("scenario: sweep grid axes[%d]: key is empty", i)
		case keys[ax.Key]:
			return fmt.Errorf("scenario: sweep grid axes[%d]: duplicate key %q", i, ax.Key)
		case ax.Field == "":
			return fmt.Errorf("scenario: sweep grid axis %q: field is empty", ax.Key)
		case len(ax.Values) == 0:
			return fmt.Errorf("scenario: sweep grid axis %q: values is empty", ax.Key)
		case len(ax.Labels) > 0 && len(ax.Labels) != len(ax.Values):
			return fmt.Errorf("scenario: sweep grid axis %q: %d labels for %d values", ax.Key, len(ax.Labels), len(ax.Values))
		}
		keys[ax.Key] = true
		for v := range ax.Values {
			// An empty label would name the point after no value at all.
			if ax.Label(v) == "" {
				return fmt.Errorf("scenario: sweep grid axis %q: values[%d] has an empty label (name it explicitly)", ax.Key, v)
			}
		}
	}
	if n := g.Points(); n > MaxPoints {
		return fmt.Errorf("scenario: sweep grid has more than %d points (its axes and seeds multiply past the limit)", MaxPoints)
	}
	return nil
}

// Expand materializes the grid in its deterministic order. Every point
// is validated; an invalid cell (e.g. a nodes value the base topology
// kind cannot host) fails the whole expansion, so a sweep never runs
// half a study.
func (sw Sweep) Expand() ([]Point, error) {
	if err := sw.Grid.validate(); err != nil {
		return nil, err
	}
	name := sw.Name
	if name == "" {
		name = sw.Base.Name
	}
	// The seeds are the innermost axis; an empty list keeps the base.
	seeds := sw.Grid.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{sw.Base.Seed}
	}
	axes := sw.Grid.Axes
	points := make([]Point, 0, sw.Grid.Points())
	// idx walks the mixed-radix counter over the axes, last fastest — a
	// plain counting loop keeps the order self-evident.
	idx := make([]int, len(axes))
	for {
		spec := sw.Base.clone()
		var labels []string
		for a, ax := range axes {
			if err := ax.apply(&spec, idx[a]); err != nil {
				return nil, fmt.Errorf("scenario: sweep %q axis %q field %q values[%d]: %w", name, ax.Key, ax.Field, idx[a], err)
			}
			labels = append(labels, ax.Key+"="+ax.Label(idx[a]))
		}
		for _, seed := range seeds {
			pt := spec
			pt.Seed = seed
			suffix := labels
			if len(sw.Grid.Seeds) > 0 {
				suffix = append(suffix[:len(suffix):len(suffix)], fmt.Sprintf("seed=%d", seed))
			}
			pt.Name = name
			if len(suffix) > 0 {
				pt.Name = name + "/" + strings.Join(suffix, ",")
			}
			if err := pt.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: sweep %q point %q: %w", name, pt.Name, err)
			}
			points = append(points, Point{Index: len(points), Spec: pt})
		}

		// Increment the counter, innermost (last) axis fastest.
		a := len(axes) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(axes[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			return points, nil
		}
	}
}

// PointResult is one grid cell's outcome. Exactly one of Error and
// Result is set: a point whose run fails (validation, livelock budget,
// or a panic out of the protocol model) is reported in place, so one
// pathological cell cannot void a 200-point study.
type PointResult struct {
	Index          int     `json:"index"`
	Name           string  `json:"name"`
	Nodes          int     `json:"nodes"`
	PushedBufBytes int     `json:"pushedBufBytes"`
	Size           int     `json:"size"`
	LossRate       float64 `json:"lossRate"`
	Algorithm      string  `json:"algorithm,omitempty"`
	Seed           uint64  `json:"seed"`
	Error          string  `json:"error,omitempty"`
	// BudgetExhausted flags an Error that was a virtual-time-budget
	// exhaustion (protocol deadlock or retransmission livelock), so
	// sweeps over pathological cells are machine-checkable without
	// string matching. PeerUnreachable flags the structured failure
	// instead: the transport diagnosed a dead peer and failed fast.
	BudgetExhausted bool    `json:"budgetExhausted,omitempty"`
	PeerUnreachable bool    `json:"peerUnreachable,omitempty"`
	Result          *Result `json:"result,omitempty"`
}

// SweepResult is the machine-readable outcome of a whole sweep, in grid
// order. Nothing in it depends on wall time or worker count: running the
// same sweep with 1 worker or GOMAXPROCS produces a byte-identical
// encoding, and the aggregate Digest makes that checkable at a glance.
type SweepResult struct {
	Sweep       string        `json:"sweep"`
	Description string        `json:"description,omitempty"`
	Points      int           `json:"points"`
	Failed      int           `json:"failed"`
	Results     []PointResult `json:"results"`
	// Digest is a SHA-256 over every point's digest (or error) in grid
	// order: two sweeps agree iff all their runs do.
	Digest string `json:"digest"`
}

// JSON renders the sweep result indented for files and stdout.
func (r *SweepResult) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	return out
}

// ParallelFor runs do(i) for every i in [0, n) across a pool of
// workers. It is the repo's one across-runs parallelism primitive: each
// do call owns its simulation engines outright (engines are single-
// threaded by design), so parallelism lives strictly across runs, never
// within one, and results indexed by i need no locking. workers <= 0
// means GOMAXPROCS; ParallelFor returns when every call has.
func ParallelFor(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
}

// RunSweep expands the sweep and runs every point across a worker pool,
// one simulation engine per goroutine. workers <= 0 means GOMAXPROCS.
// Results come back in grid order regardless of completion order.
func RunSweep(sw Sweep, workers int, opts ...RunOption) (*SweepResult, error) {
	points, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	results := make([]PointResult, len(points))
	ParallelFor(len(points), workers, func(i int) {
		results[i] = runPoint(points[i], opts...)
	})

	name := sw.Name
	if name == "" {
		name = sw.Base.Name
	}
	res := &SweepResult{
		Sweep:       name,
		Description: sw.Description,
		Points:      len(results),
		Results:     results,
	}
	h := sha256.New()
	for i := range results {
		pr := &results[i]
		if pr.Error != "" {
			res.Failed++
			fmt.Fprintf(h, "%d %s error %s\n", pr.Index, pr.Name, pr.Error)
			continue
		}
		fmt.Fprintf(h, "%d %s %s\n", pr.Index, pr.Name, pr.Result.Digest)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// runPoint runs one cell, converting errors and model panics into the
// point's Error field. The recover matters under parallelism: a panic
// escaping a worker goroutine would kill the whole process, turning one
// bad cell into zero results.
func runPoint(pt Point, opts ...RunOption) (pr PointResult) {
	s := pt.Spec
	pr = PointResult{
		Index:          pt.Index,
		Name:           s.Name,
		Nodes:          s.Topology.Nodes,
		PushedBufBytes: s.Protocol.PushedBufBytes,
		Size:           s.Traffic.Size,
		LossRate:       s.Topology.LossRate,
		Algorithm:      s.Traffic.Algorithm,
		Seed:           s.Seed,
	}
	defer func() {
		if r := recover(); r != nil {
			pr.Result = nil
			pr.Error = fmt.Sprintf("panic: %v", r)
		}
	}()
	res, err := Run(s, opts...)
	if err != nil {
		pr.Error = err.Error()
		pr.BudgetExhausted = IsBudgetError(err)
		pr.PeerUnreachable = IsPeerUnreachable(err)
		return pr
	}
	pr.Result = res
	return pr
}

// ParseSweep overlays JSON onto a default-rooted sweep, so a sweep file
// only states what differs from the paper's testbed (mirroring
// ParseSpec, strictness included).
func ParseSweep(data []byte) (Sweep, error) {
	sw := Sweep{Base: DefaultSpec()}
	if err := strictjson.Unmarshal(data, &sw); err != nil {
		return Sweep{}, fmt.Errorf("scenario: parsing sweep: %w", err)
	}
	if _, err := sw.Expand(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

// JSON renders the sweep spec canonically.
func (sw Sweep) JSON() []byte {
	out, err := json.MarshalIndent(sw, "", "  ")
	if err != nil {
		panic(err)
	}
	return out
}

// values encodes Go values as axis values.
func values[T any](vs ...T) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		enc, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain data: cannot fail
		}
		out[i] = enc
	}
	return out
}

// raw wraps JSON literals as axis values.
func raw(vs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		out[i] = json.RawMessage(v)
	}
	return out
}

// BuiltinSweeps returns the named parameter studies shipped with the
// engine: small grids for CI determinism checks, a larger study, and
// the paper's latency curves (figureSweeps).
func BuiltinSweeps() []Sweep {
	smoke := Sweep{
		Name:        "smoke-grid",
		Description: "small CI grid: permutation traffic over nodes x size x seed (8 points, seconds)",
		Base:        DefaultSpec(),
	}
	smoke.Base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1, Policy: "symmetric"}
	smoke.Base.Traffic = Traffic{Pattern: "permutation", Size: 1400, Messages: 10}
	smoke.Grid = Grid{
		Axes: []Axis{
			{Key: "nodes", Field: "topology.nodes", Values: values(2, 4)},
			{Key: "size", Field: "traffic.size", Values: values(256, 1400)},
		},
		Seeds: []uint64{1, 2},
	}

	study := Sweep{
		Name:        "perm-study",
		Description: "48-point study: permutation latency vs nodes x pushed buffer x size x loss x seed",
		Base:        DefaultSpec(),
	}
	study.Base.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	study.Base.Protocol.RTOMs = 2
	study.Base.Traffic = Traffic{Pattern: "permutation", Size: 1400, Messages: 30}
	study.Grid = Grid{
		Axes: []Axis{
			{Key: "nodes", Field: "topology.nodes", Values: values(4, 6)},
			{Key: "buf", Field: "protocol.pushedBufBytes", Values: values(4096, 16384)},
			{Key: "size", Field: "traffic.size", Values: values(1400, 4096)},
			{Key: "loss", Field: "topology.lossRate", Values: values(0, 0.005)},
		},
		Seeds: []uint64{1, 2, 3},
	}

	collSmoke := Sweep{
		Name:        "coll-smoke",
		Description: "CI grid for the collective family: allreduce over nodes x algorithm x seed (16 points, seconds)",
		Base:        DefaultSpec(),
	}
	collSmoke.Base.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	collSmoke.Base.Traffic = Traffic{Pattern: "allreduce", Size: 1024, Messages: 5}
	collSmoke.Grid = Grid{
		Axes: []Axis{
			{Key: "nodes", Field: "topology.nodes", Values: values(2, 4)},
			{Key: "alg", Field: "traffic.algorithm", Values: values("tree", "recursive-doubling", "ring", "rs-ag")},
		},
		Seeds: []uint64{1, 2},
	}

	faultSmoke := Sweep{
		Name:        "fault-smoke",
		Description: "CI grid for the fault family: internode ping-pong over fault plan x seed (8 points, seconds) — pins that every plan degrades and recovers identically across worker counts",
		Base:        DefaultSpec(),
	}
	faultSmoke.Base.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 100}
	faultSmoke.Base.Protocol.RTOMs = 2
	faultSmoke.Base.Protocol.AdaptiveRTO = true
	faultSmoke.Base.Protocol.MaxRetries = 10
	faultSmoke.Base.MaxVirtualMS = 3000
	// Small one-event shapes on node 1, present in every networked
	// topology; null is the clean baseline.
	faultSmoke.Grid = Grid{
		Axes: []Axis{{
			Key: "faults", Field: "faults",
			Values: values(nil,
				&fault.Plan{Events: []fault.Event{
					{Kind: fault.KindLinkDown, Node: 1, AtMS: 1, UntilMS: 6},
				}},
				&fault.Plan{Events: []fault.Event{
					{Kind: fault.KindLinkFlap, Node: 1, AtMS: 0, UntilMS: 10,
						PeriodMS: 1, DutyCycle: 0.6, Random: true},
				}},
				&fault.Plan{Events: []fault.Event{
					{Kind: fault.KindLossBurst, Node: 1, AtMS: 0, UntilMS: 20,
						PEnterBurst: 0.03, PExitBurst: 0.25, BurstLoss: 0.5},
				}}),
			Labels: []string{"none", "blackout-5ms", "flap", "burst-loss"},
		}},
		Seeds: []uint64{1, 2},
	}

	protoGrid := Sweep{
		Name:        "proto-grid",
		Description: "CI grid for the transport fields: internode ping-pong over procsPerNode x rtoMs x gbnWindow on a lossy wire (8 points, seconds)",
		Base:        DefaultSpec(),
	}
	protoGrid.Base.Topology.LossRate = 0.002 // make the RTO/window axes matter
	protoGrid.Base.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 50}
	protoGrid.Grid = Grid{
		Axes: []Axis{
			{Key: "procs", Field: "topology.procsPerNode", Values: values(1, 2)},
			{Key: "rto", Field: "protocol.rtoMs", Values: values(2, 8)},
			{Key: "win", Field: "protocol.gbnWindow", Values: values(8, 32)},
		},
	}

	return append([]Sweep{smoke, study, collSmoke, faultSmoke, protoGrid}, figureSweeps()...)
}

// SweepNames lists the builtin sweep names, sorted.
func SweepNames() []string {
	sweeps := BuiltinSweeps()
	names := make([]string, 0, len(sweeps))
	for _, sw := range sweeps {
		names = append(names, sw.Name)
	}
	sort.Strings(names)
	return names
}

// SweepByName returns the builtin sweep with the given name.
func SweepByName(name string) (Sweep, error) {
	for _, sw := range BuiltinSweeps() {
		if sw.Name == name {
			return sw, nil
		}
	}
	return Sweep{}, fmt.Errorf("scenario: unknown sweep %q (have %v)", name, SweepNames())
}
