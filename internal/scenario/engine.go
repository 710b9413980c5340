package scenario

import (
	"fmt"

	"pushpull/internal/adapt"
	"pushpull/internal/cluster"
	"pushpull/internal/sim"
	"pushpull/internal/stats"
	"pushpull/internal/trace"
)

// RunOption tunes one Run call without touching the spec.
type RunOption func(*runOpts)

type runOpts struct {
	keepSamples bool
}

// KeepSamples retains the raw per-message latency samples in the
// Result (they are always part of the digest).
func KeepSamples() RunOption {
	return func(o *runOpts) { o.keepSamples = true }
}

// Run validates the spec, builds the described cluster and drives the
// traffic pattern on it, returning the machine-readable result.
func Run(spec Spec, opts ...RunOption) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.clusterConfig()
	if err != nil {
		return nil, err
	}
	return RunConfig(cfg, spec, opts...)
}

// RunConfig is Run for callers that already hold a full cluster.Config
// (the repo benchmark lowers each workload onto a cluster.Config by hand
// so it can time cluster.New on the very config that runs). The spec
// contributes the traffic pattern, the adaptive-protocol switch and the
// labels; the cluster seed comes from cfg.
func RunConfig(cfg cluster.Config, spec Spec, opts ...RunOption) (*Result, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	pat, ok := patterns[spec.Traffic.Pattern]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown traffic pattern %q (have %v)", spec.Traffic.Pattern, PatternNames())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The cluster seed is authoritative: seed-derived traffic
	// (permutation partners, wavefront keys) must draw from the same
	// seed the Result reports, or the run would not be reproducible
	// from its own output.
	spec.Seed = cfg.Seed

	c := cluster.New(cfg)
	// The result keeps only per-kind event counts, so the recorder keeps
	// nothing else.
	rec := trace.NewCounter()
	c.SetRecorder(rec)
	if spec.Protocol.Adaptive {
		ac := spec.adaptConfig(cfg.Opts)
		for _, st := range c.Stacks {
			st.SetAdapter(adapt.NewController(ac))
		}
	}

	samples, bytes, err := runPattern(c, pat.run, spec)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Scenario:  spec.Name,
		Pattern:   spec.Traffic.Pattern,
		Seed:      cfg.Seed,
		VirtualUS: sim.Duration(c.Now()).Microseconds(),
		Latency:   stats.Summarize(samples),
		Events:    make(map[string]uint64),
	}
	for _, kind := range rec.Kinds() {
		res.Events[string(kind)] = rec.Count(kind)
	}
	var receives uint64
	for node, st := range c.Stacks {
		res.DiscardedBytes += st.DiscardedBytes()
		for proc := 0; proc < st.Procs(); proc++ {
			ep := st.Endpoint(proc)
			res.Endpoints = append(res.Endpoints, EndpointResult{
				Node: node, Proc: proc, Sent: ep.Sent(), Received: ep.Received(),
			})
			receives += ep.Received()
			res.Ranks++
		}
	}
	res.Receives = receives
	res.Bytes = bytes
	if res.VirtualUS > 0 {
		res.ThroughputMBps = float64(bytes) / res.VirtualUS // bytes/µs == MB/s
	}
	if c.Faults != nil {
		res.Degradation = degradation(c)
	}
	res.seal(samples, o.keepSamples)
	if len(c.NICs) > 0 {
		fl := c.FrameLoss()
		res.FrameLoss = &fl
	}
	return res, nil
}

// runPattern drives the pattern and converts pattern-level panics on
// unreachable peers (the patterns' must() helper) into returned errors.
// Anything else is a real bug and keeps panicking. The engine is shut
// down on the recovery path: runSim's deferred Shutdown never ran when
// RunUntil re-raised a process panic, and without it the cluster's
// pumps would leak goroutines parked on the virtual clock.
func runPattern(c *cluster.Cluster, pat patternFunc, spec Spec) (samples []float64, bytes uint64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		perr, ok := r.(error)
		if !ok || !IsPeerUnreachable(perr) {
			panic(r)
		}
		c.Shutdown()
		samples, bytes = nil, 0
		err = perr
	}()
	return pat(c, spec)
}

// degradation assembles the fault-impact section from the compiled
// fault set and the stacks' transport counters.
func degradation(c *cluster.Cluster) *Degradation {
	d := &Degradation{}
	end := c.Now()
	var rto []float64
	for node, st := range c.Stacks {
		nd := NodeDegradation{
			Node:        node,
			DowntimeUS:  c.Faults.Downtime(node, end).Microseconds(),
			BurstLosses: c.Faults.BurstLosses(node),
			FailedOps:   st.FailedOps(),
			DeadPeers:   st.DeadPeers(),
		}
		for peer := range c.Stacks {
			if peer == node {
				continue
			}
			ls := st.LinkStats(peer)
			nd.Retransmissions += ls.Retransmissions
			nd.Timeouts += ls.Timeouts
			nd.Recovered += ls.Recovered
		}
		d.Nodes = append(d.Nodes, nd)
		d.Retransmissions += nd.Retransmissions
		d.Timeouts += nd.Timeouts
		d.Recovered += nd.Recovered
		d.FailedOps += nd.FailedOps
		rto = st.RTOSamples(rto)
	}
	last := c.Faults.LastFaultEnd()
	if last > end {
		last = end
	}
	d.LastFaultUS = sim.Duration(last).Microseconds()
	if end > last {
		d.RecoveryUS = end.Sub(last).Microseconds()
	}
	if len(rto) > 0 {
		q := stats.QuantileSummary(rto)
		d.BackoffRTO = &q
		d.BackoffHist = stats.NewHistogram(rto, 8)
	}
	return d
}
