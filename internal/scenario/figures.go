package scenario

// figureSweeps returns the grids behind the paper's evaluation (§5) and
// the ablations as builtin sweeps: the latency curves, and the grids
// whose tables also derive bandwidth from each point. Each is a base
// spec plus a series axis (when the figure has several curves) and an x
// axis whose labels are numbers, so internal/bench can lay each point's
// value out as its table. Message counts are the ones each figure uses
// at the paper's 1000 iterations.
func figureSweeps() []Sweep {
	figure := func(name, desc string, messages int) Sweep {
		sw := Sweep{Name: name, Description: desc, Base: DefaultSpec()}
		sw.Base.Traffic.Messages = messages
		return sw
	}
	modes := Axis{Key: "mode", Field: "protocol.mode", Values: values("push-zero", "push-pull", "push-all")}
	sizes := func(ns ...int) Axis { return Axis{Key: "size", Field: "traffic.size", Values: values(ns...)} }

	fig3 := figure("fig3", "Figure 3: intranode single-trip mean latency, pushed buffer 12 KB", 1000)
	fig3.Base.Topology = Topology{Kind: "intranode", Nodes: 1, ProcsPerNode: 2, Policy: "symmetric"}
	fig3.Base.Protocol.PushedBufBytes = 12 << 10
	fig3.Grid.Axes = []Axis{modes, sizes(10, 500, 1000, 2000, 3000, 3500, 4000, 4500, 5000, 6000, 7000, 8192)}

	// Masking requires (and implies) the user-level trigger; the other
	// variants go through the kernel driver path.
	fig4 := figure("fig4", "Figure 4: internode single-trip mean latency under optimizing techniques", 1000)
	fig4.Grid.Axes = []Axis{
		{Key: "opt", Field: "protocol", Values: raw(
			`{"maskTranslation":false,"userTrigger":false,"overlapAck":false}`,
			`{"maskTranslation":true,"userTrigger":true,"overlapAck":false}`,
			`{"maskTranslation":false,"userTrigger":false,"overlapAck":true}`,
			`{"maskTranslation":true,"userTrigger":true,"overlapAck":true}`),
			Labels: []string{"no-optimization", "mask-only", "overlap-only", "full-optimization"}},
		sizes(4, 100, 200, 400, 600, 760, 800, 1000, 1200, 1400),
	}

	// Each early/late iteration burns milliseconds of virtual compute
	// (and the Push-All collapse hundreds of ms); 200 iterations already
	// give a stable trimmed mean in a noise-free simulation.
	fig6 := func(name, what string, x, y int64) Sweep {
		sw := figure(name, "Figure 6 ("+what+" receiver): compute-then-communicate ping-pong, pushed buffer 4 KB", 200)
		sw.Base.Protocol.PushedBufBytes = 4096
		sw.Base.Traffic.Pattern = "earlylate"
		sw.Base.Traffic.ComputeX, sw.Base.Traffic.ComputeY = x, y
		sw.Grid.Axes = []Axis{modes, sizes(4, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192)}
		return sw
	}
	fig6Early := fig6("fig6-early", "early", 500_000, 100_000)
	fig6Late := fig6("fig6-late", "late", 100_000, 300_000)

	btp2 := figure("btp2", "BTP(2) sweep at BTP(1)=0, 1400 B messages (overlap only)", 1000)
	btp2.Base.Protocol.BTP1 = 0
	btp2.Grid.Axes = []Axis{{Key: "btp2", Field: "protocol.btp2",
		Values: values(0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200, 1300, 1400)}}

	btp1 := figure("btp1", "BTP(1) sweep at BTP(2)=680, 1400 B messages", 1000)
	btp1.Base.Protocol.BTP2 = 680
	btp1.Grid.Axes = []Axis{{Key: "btp1", Field: "protocol.btp1",
		Values: values(0, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240, 260, 280, 300, 320, 340, 360, 380, 400)}}

	interrupt := figure("ablation-interrupt", "Ablation: internode single-trip latency by handler invocation method", 500)
	interrupt.Grid.Axes = []Axis{
		{Key: "policy", Field: "topology.policy", Values: values("symmetric", "asymmetric", "polling"),
			Labels: []string{"symmetric", "asymmetric-cpu0", "polling-5us"}},
		sizes(4, 760, 1400, 8192),
	}

	trigger := figure("ablation-trigger", "Ablation: user-level trigger vs kernel driver transmit path (masking off to isolate)", 500)
	trigger.Base.Protocol.MaskTranslation = false
	trigger.Grid.Axes = []Axis{
		{Key: "trigger", Field: "protocol.userTrigger", Values: values(true, false),
			Labels: []string{"user-trigger", "kernel-trigger"}},
		sizes(4, 200, 760, 1400),
	}

	// Short periods approach (and beat) interrupt latency at the cost of
	// a busy processor; long periods quantize every frame arrival up to
	// the period. Period 0 is the symmetric-interrupt baseline.
	polling := figure("ablation-polling", "Ablation: internode 4 B single-trip latency vs reception method", 500)
	polling.Base.Traffic.Size = 4
	polling.Grid.Axes = []Axis{{Key: "period", Field: "topology", Values: raw(
		`{"policy":"symmetric"}`,
		`{"policy":"polling","pollPeriodUS":1}`,
		`{"policy":"polling","pollPeriodUS":2}`,
		`{"policy":"polling","pollPeriodUS":5}`,
		`{"policy":"polling","pollPeriodUS":10}`,
		`{"policy":"polling","pollPeriodUS":20}`,
		`{"policy":"polling","pollPeriodUS":50}`),
		Labels: []string{"0", "1", "2", "5", "10", "20", "50"}}}

	// The classical protocol: no optimizations, kernel trigger,
	// synchronous handshake.
	threePhase := figure("threephase", "Three-phase handshake baseline vs Push-Pull (internode)", 1000)
	threePhase.Grid.Axes = []Axis{
		{Key: "protocol", Field: "protocol", Values: raw(
			`{"mode":"three-phase","maskTranslation":false,"overlapAck":false,"userTrigger":false}`,
			`{"mode":"push-zero"}`,
			`{"mode":"push-pull"}`),
			Labels: []string{"three-phase", "push-zero full-opt", "push-pull full-opt"}},
		sizes(4, 100, 400, 760, 1400, 3000, 8192),
	}

	// The long-vector schedules: segmented ring bcast against the plain
	// ring, reduce-scatter + allgather against the rooted tree.
	longVector := figure("longvector", "Long-vector collectives on 8 switched ranks: plain vs segmented ring bcast, tree vs rs-ag allreduce", 10)
	longVector.Base.Topology = Topology{Kind: "switch", Nodes: 8, ProcsPerNode: 1, Policy: "symmetric"}
	longVector.Base.Protocol.PushedBufBytes = 64 << 10
	longVector.Grid.Axes = []Axis{
		{Key: "traffic", Field: "traffic", Values: raw(
			`{"pattern":"bcast","algorithm":"ring"}`,
			`{"pattern":"bcast","algorithm":"ring-seg","segmentBytes":8192}`,
			`{"pattern":"allreduce","algorithm":"tree"}`,
			`{"pattern":"allreduce","algorithm":"rs-ag"}`),
			Labels: []string{"bcast-ring", "bcast-ring-seg", "allreduce-tree", "allreduce-rs-ag"}},
		sizes(16<<10, 64<<10, 256<<10),
	}

	zeroBuf := figure("ablation-zerobuf", "Ablation: intranode zero buffer vs shared-segment double copy, pushed buffer 64 KB", 500)
	zeroBuf.Base.Topology = fig3.Base.Topology
	zeroBuf.Base.Protocol.PushedBufBytes = 64 << 10
	zeroBuf.Grid.Axes = []Axis{
		{Key: "copy", Field: "protocol.disableZeroBuffer", Values: values(false, true),
			Labels: []string{"zero-buffer", "double-copy"}},
		sizes(1000, 4000, 8192, 16384),
	}

	// Fragments stripe across the rails (the §6 outlook).
	multiRail := figure("multirail", "Extension: internode 64 KB messages vs NIC rails per node", 50)
	multiRail.Base.Protocol.PushedBufBytes = 64 << 10
	multiRail.Base.Traffic.Size = 64 << 10
	multiRail.Grid.Axes = []Axis{{Key: "rails", Field: "topology.rails", Values: values(1, 2, 3, 4)}}

	// Every recovery costs an RTO of virtual time, hence the short RTO
	// and the 300 messages. The labels are percent.
	loss := figure("ablation-loss", "Ablation: internode 1400 B ping-pong vs frame loss rate (RTO 2 ms)", 300)
	loss.Base.Protocol.RTOMs = 2
	loss.Grid.Axes = []Axis{{Key: "loss", Field: "topology.lossRate", Values: values(0, 0.0001, 0.001, 0.01, 0.05),
		Labels: []string{"0", "0.01", "0.1", "1", "5"}}}

	hub := figure("hub", "Ablation: internode ping-pong on back-to-back cabling, a switch and a shared-medium hub", 1000)
	hub.Grid.Axes = []Axis{
		{Key: "fabric", Field: "topology.kind", Values: values("back-to-back", "switch", "hub"),
			Labels: []string{"back-to-back", "switch", "hub (half-duplex)"}},
		sizes(4, 760, 1400, 4096, 8192),
	}

	return []Sweep{fig3, fig4, fig6Early, fig6Late, btp2, btp1, interrupt, trigger, polling, threePhase, longVector,
		zeroBuf, multiRail, loss, hub}
}
