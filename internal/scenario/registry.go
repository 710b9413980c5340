package scenario

import (
	"fmt"
	"sort"

	"pushpull/internal/fault"
)

// Builtin returns the named scenarios shipped with the engine: the
// paper's own measurement shapes expressed declaratively, plus workload
// shapes beyond the paper's. Each entry is a complete Spec — print it
// with Spec.JSON, tweak fields, and feed it back through ParseSpec.
func Builtin() []Spec {
	base := func(name, desc string) Spec {
		s := DefaultSpec()
		s.Name = name
		s.Description = desc
		return s
	}

	intraPing := base("paper-intranode-pingpong",
		"paper Fig. 3 headline point: 10 B intranode ping-pong, 12 KB pushed buffer (paper: 7.5 µs single trip)")
	intraPing.Topology.Kind = "intranode"
	intraPing.Topology.Nodes = 1
	intraPing.Topology.ProcsPerNode = 2
	intraPing.Protocol.PushedBufBytes = 12 << 10
	intraPing.Traffic = Traffic{Pattern: "pingpong", Size: 10, Messages: 1000}

	interPing := base("paper-internode-pingpong",
		"paper Fig. 4 full-optimization point: 1400 B internode ping-pong over back-to-back Fast Ethernet")
	interPing.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 1000}

	early := base("paper-early-receiver",
		"paper Fig. 6 (left): compute-then-communicate ping-pong, receiver arrives early (x=500k, y=100k NOPs)")
	early.Protocol.PushedBufBytes = 4096
	early.Traffic = Traffic{Pattern: "earlylate", Size: 2048, Messages: 200,
		ComputeX: 500_000, ComputeY: 100_000}

	late := base("paper-late-receiver",
		"paper Fig. 6 (right): compute-then-communicate ping-pong, receiver arrives late (x=100k, y=300k NOPs)")
	late.Protocol.PushedBufBytes = 4096
	late.Traffic = Traffic{Pattern: "earlylate", Size: 2048, Messages: 200,
		ComputeX: 100_000, ComputeY: 300_000}

	bw := base("paper-bandwidth",
		"paper §5 bandwidth body: 8 KB internode stream with per-message 4 B acks (paper peak: 12.1 MB/s)")
	bw.Traffic = Traffic{Pattern: "bandwidth", Size: 8192, Messages: 200}

	hotspot := base("hotspot",
		"all-to-one: seven senders converge on one sink over a switch, overflowing its pushed buffer")
	hotspot.Topology = Topology{Kind: "switch", Nodes: 8, ProcsPerNode: 1, Policy: "symmetric"}
	hotspot.Traffic = Traffic{Pattern: "hotspot", Size: 2048, Messages: 50}

	perm := base("permutation",
		"random permutation: every rank streams to a seed-derived partner, all channels concurrently")
	perm.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	perm.Traffic = Traffic{Pattern: "permutation", Size: 1400, Messages: 50}

	bursty := base("bursty",
		"on/off senders: 16-message bursts separated by 500 µs of silence, two sender/receiver pairs over a switch")
	bursty.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	bursty.Traffic = Traffic{Pattern: "bursty", Size: 4096, Messages: 96,
		BurstLen: 16, BurstIdleUS: 500}

	pipeline := base("pipeline",
		"store-and-forward chain through four nodes; end-to-end latency includes every hop's push/pull")
	pipeline.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	pipeline.Traffic = Traffic{Pattern: "pipeline", Size: 4096, Messages: 100}

	wave := base("wavefront",
		"irregular data-dependent propagation: each delivery triggers sends of payload-derived sizes to payload-derived targets")
	wave.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	wave.Traffic = Traffic{Pattern: "wavefront", Size: 1024, Messages: 4,
		Fanout: 2, Depth: 5, MinSize: 800, MaxSize: 2400}

	// eagerOverflow pins the protocol fix that retired the shared-stream
	// RTO livelock: a convergent wavefront whose data-derived sizes dip
	// below the 760 B BTP produces fully eager messages, and at seed 42
	// one is refused for lack of pushed-buffer slots while the slots are
	// held by messages parked behind it. On the old per-node-pair
	// go-back-N stream that was a permanent livelock (the refused
	// fragment sat in front of the pull data that would have freed the
	// buffer); on per-channel lanes every stream recovers within one RTO.
	// The tight budget is the regression tripwire: the run completes in
	// ~152 virtual ms, and any reintroduced cross-message blocking blows
	// the 3000 ms budget instead of hanging CI.
	eagerOverflow := base("eager-overflow",
		"seed-42 convergent fully-eager (size <= BTP) wavefront: livelocked the shared stream, completes on per-channel lanes")
	eagerOverflow.Seed = 42
	eagerOverflow.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	eagerOverflow.Traffic = Traffic{Pattern: "wavefront", Size: 1024, Messages: 4,
		Fanout: 2, Depth: 4, MinSize: 64, MaxSize: 2048}
	eagerOverflow.MaxVirtualMS = 3000

	waveAdaptive := base("wavefront-adaptive",
		"the wavefront under the AIMD BTP controller: adaptation chases the per-channel buffer headroom of an irregular load")
	waveAdaptive.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	waveAdaptive.Protocol.Adaptive = true
	waveAdaptive.Traffic = Traffic{Pattern: "wavefront", Size: 1024, Messages: 4,
		Fanout: 2, Depth: 5, MinSize: 800, MaxSize: 2400}

	hubHotspot := base("hub-hotspot",
		"the hotspot on one shared half-duplex segment: collisions and backoff jitter under convergence")
	hubHotspot.Topology = Topology{Kind: "hub", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	hubHotspot.Traffic = Traffic{Pattern: "hotspot", Size: 1400, Messages: 30}

	lossyPerm := base("lossy-permutation",
		"the permutation over a damaged cable (0.5% frame loss): go-back-N recoveries under concurrent streams")
	lossyPerm.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1,
		Policy: "symmetric", LossRate: 0.005}
	lossyPerm.Protocol.RTOMs = 2
	lossyPerm.Traffic = Traffic{Pattern: "permutation", Size: 1400, Messages: 40}

	// The collective family runs the public coll package — whole-world
	// schedules instead of per-channel streams — with Traffic.Algorithm
	// as the sweepable axis.
	collAllreduce := base("coll-allreduce",
		"collective family: 6-node recursive-doubling allreduce of 4 KB vectors, log-round pairwise exchanges under switch contention")
	collAllreduce.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	collAllreduce.Traffic = Traffic{Pattern: "allreduce", Size: 4096, Messages: 20,
		Algorithm: "recursive-doubling"}

	collAllreduceRing := base("coll-allreduce-ring",
		"the same allreduce on the ordered ring: 2(n-1) rounds in rank order — the algorithm-ablation partner of coll-allreduce")
	collAllreduceRing.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	collAllreduceRing.Traffic = Traffic{Pattern: "allreduce", Size: 4096, Messages: 20,
		Algorithm: "ring"}

	collAlltoall := base("coll-alltoall",
		"collective family: full block shuffle on 8 ranks (4 nodes x 2 procs) — the transpose/FFT exchange, intra- and internode at once")
	collAlltoall.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 2, Policy: "symmetric"}
	collAlltoall.Traffic = Traffic{Pattern: "alltoall", Size: 1024, Messages: 10}

	// The long-vector pair: the segmented/pipelined algorithms this
	// family exists to characterize, at sizes where the plain schedules
	// leave most links idle.
	collBcastSeg := base("coll-bcast-seg",
		"collective family: 64 KiB segmented ring broadcast through 6 switched nodes (8 KiB segments) — the pipelined chain, every link busy at once")
	collBcastSeg.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	collBcastSeg.Protocol.PushedBufBytes = 64 << 10
	collBcastSeg.Traffic = Traffic{Pattern: "bcast", Size: 64 << 10, Messages: 8,
		Algorithm: "ring-seg", SegmentBytes: 8192}

	collAllreduceRsag := base("coll-allreduce-rsag",
		"collective family: 32 KiB reduce-scatter + allgather allreduce on 8 switched ranks — 1/P blocks instead of full-vector rounds, no bottleneck rank")
	collAllreduceRsag.Topology = Topology{Kind: "switch", Nodes: 8, ProcsPerNode: 1, Policy: "symmetric"}
	collAllreduceRsag.Protocol.PushedBufBytes = 64 << 10
	collAllreduceRsag.Traffic = Traffic{Pattern: "allreduce", Size: 32 << 10, Messages: 8,
		Algorithm: "rs-ag"}

	collHalo := base("coll-halo",
		"collective family: 1-D halo exchange, 8 KB halos through 4 KB pushed buffers with rank-skewed compute — §5.3 early/late races at scale")
	collHalo.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	collHalo.Protocol.PushedBufBytes = 4096
	collHalo.Traffic = Traffic{Pattern: "halo", Size: 8192, Messages: 20,
		ComputeX: 300_000, ComputeY: 60_000}

	// The fault family exercises the deterministic fault-injection
	// subsystem (internal/fault) against the self-healing transport:
	// each pins a degradation-and-recovery story in its digest — per-
	// link downtime, retransmissions, backoff spread, recovery tail.
	blackoutRecovery := base("blackout-recovery",
		"fault family: the internode ping-pong through an 8 ms total link blackout — adaptive RTO backs off across the outage, delivery resumes exactly-once on restore")
	blackoutRecovery.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 400}
	blackoutRecovery.Protocol.RTOMs = 2
	blackoutRecovery.Protocol.AdaptiveRTO = true
	blackoutRecovery.Protocol.MaxRetries = 10
	blackoutRecovery.MaxVirtualMS = 3000
	blackoutRecovery.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindLinkDown, Node: 1, AtMS: 2, UntilMS: 10},
	}}

	flakyAllreduce := base("flaky-link-allreduce",
		"fault family: recursive-doubling allreduce while one rank's cable suffers correlated Gilbert-Elliott loss bursts — go-back-N recoveries inside a collective schedule")
	flakyAllreduce.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	flakyAllreduce.Traffic = Traffic{Pattern: "allreduce", Size: 2048, Messages: 10,
		Algorithm: "recursive-doubling"}
	flakyAllreduce.Protocol.RTOMs = 2
	flakyAllreduce.Protocol.AdaptiveRTO = true
	flakyAllreduce.MaxVirtualMS = 3000
	flakyAllreduce.Faults = &fault.Plan{Seed: 7, Events: []fault.Event{
		{Kind: fault.KindLossBurst, Node: 2, AtMS: 0, UntilMS: 40,
			PEnterBurst: 0.02, PExitBurst: 0.25, BurstLoss: 0.6},
	}}

	flappingWave := base("flapping-wavefront",
		"fault family: the irregular wavefront over a flapping access link (1.5 ms period, 70% duty, seeded-random down phase) — retransmission storms meet data-dependent traffic")
	flappingWave.Topology = Topology{Kind: "switch", Nodes: 6, ProcsPerNode: 1, Policy: "symmetric"}
	flappingWave.Traffic = Traffic{Pattern: "wavefront", Size: 1024, Messages: 4,
		Fanout: 2, Depth: 5, MinSize: 800, MaxSize: 2400}
	flappingWave.Protocol.RTOMs = 2
	flappingWave.Protocol.AdaptiveRTO = true
	flappingWave.MaxVirtualMS = 3000
	flappingWave.Faults = &fault.Plan{Seed: 3, Events: []fault.Event{
		{Kind: fault.KindLinkFlap, Node: 3, AtMS: 0, UntilMS: 15,
			PeriodMS: 1.5, DutyCycle: 0.7, Random: true},
	}}

	portBlackoutPipeline := base("port-blackout-pipeline",
		"fault family: the store-and-forward chain through a switch-port blackout at hop 2 plus a NIC transmit stall at hop 1 — back-to-back faults at different layers of the same path")
	portBlackoutPipeline.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	portBlackoutPipeline.Traffic = Traffic{Pattern: "pipeline", Size: 4096, Messages: 60}
	portBlackoutPipeline.Protocol.RTOMs = 2
	portBlackoutPipeline.Protocol.AdaptiveRTO = true
	portBlackoutPipeline.Protocol.MaxRetries = 12
	portBlackoutPipeline.MaxVirtualMS = 3000
	portBlackoutPipeline.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindPortBlackout, Node: 2, AtMS: 1, UntilMS: 4},
		{Kind: fault.KindNICStall, Node: 1, AtMS: 5, UntilMS: 7},
	}}

	return []Spec{
		intraPing, interPing, early, late, bw,
		hotspot, perm, bursty, pipeline, wave,
		waveAdaptive, hubHotspot, lossyPerm, eagerOverflow,
		collAllreduce, collAllreduceRing, collAlltoall, collHalo,
		collBcastSeg, collAllreduceRsag,
		blackoutRecovery, flakyAllreduce, flappingWave, portBlackoutPipeline,
	}
}

// Names lists the builtin scenario names, sorted.
func Names() []string {
	specs := Builtin()
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// ByName returns the builtin scenario with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}
