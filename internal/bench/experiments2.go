package bench

// Experiments beyond the paper's figures: damaged-cable and hub
// topologies, the adaptive BTP controller, and the collective/
// application layer. Each is registered in All() and regenerable
// through cmd/pushpull-bench.

import (
	"encoding/json"
	"fmt"

	"pushpull/coll"
	"pushpull/internal/adapt"
	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/scenario"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/stats"
)

func runAblationLoss(p Params) []*stats.Table {
	sw := sweep("ablation-loss")
	sw.Base.Traffic.Messages = min(p.Iters, 300) // every recovery costs an RTO of virtual time
	// Both estimators read the same run of each point.
	lat := Table(sw, "Frame loss ablation: 1400 B internode single-trip latency vs loss rate (RTO 2 ms)",
		"loss(%)", "single-trip µs", func(s scenario.Spec) []float64 {
			sum := Latency(s)
			return []float64{sum.TrimmedMean, sum.Mean}
		}, "middle-80% mean", "plain mean")
	lat.Comment = "the paper's trimmed estimator hides rare recoveries at low loss rates; the plain mean exposes them"

	sw.Base.Traffic.Size = 8192
	bw := Table(sw, "Frame loss ablation: 8192 B internode bandwidth vs loss rate (RTO 2 ms)",
		"loss(%)", "MB/s", bandwidth, "push-pull full-opt")
	return []*stats.Table{lat, bw}
}

// runHub compares the back-to-back testbed with a switch and a
// shared-medium hub.
func runHub(p Params) []*stats.Table {
	sw := sweep("hub")
	sw.Base.Traffic.Messages = p.Iters
	lat := Table(sw, "Topology ablation: internode single-trip latency",
		"size(B)", "single-trip µs, middle-80% mean", trimmedMean)

	sizes := &sw.Grid.Axes[1]
	sizes.Values = []json.RawMessage{json.RawMessage("1400"), json.RawMessage("8192")}
	bw := Table(sw, "Topology ablation: internode bandwidth (data and acks share the hub's one wire)",
		"size(B)", "MB/s", bandwidth)
	bw.Comment = "the testbed (and every serious COMP of the era) used a switch or back-to-back cabling; the hub shows why"

	jit := stats.NewTable(
		"Topology ablation: 8192 B latency distribution (contention jitter the trimmed mean hides)",
		"percentile", "single-trip µs")
	sizes.Values = sizes.Values[1:] // 8192 B only
	points, err := sw.Expand()
	must(err)
	for i, pt := range points {
		s := jit.AddSeries(sw.Grid.Axes[0].Label(i))
		q := stats.QuantileSummary(run(pt.Spec, scenario.KeepSamples()).Samples)
		s.Add(50, q.P50)
		s.Add(90, q.P90)
		s.Add(99, q.P99)
	}
	return []*stats.Table{lat, bw, jit}
}

// adaptivePhases drives one sender through an early-receiver phase then a
// late-receiver phase and reports per-phase mean latency plus the wire
// bytes wasted on discarded pushes. The receiver clocks the exchange: it
// grants a 4-byte credit, optionally computes past the push's arrival
// (late phase), then posts its receive — so the lateness is a constant
// phase offset, not a drifting queue.
func adaptivePhases(p Params, adaptive bool) (early, late float64, wasted uint64, finalBTP int) {
	iters := min(p.Iters, 200)
	cfg := cluster.DefaultConfig()
	cfg.Opts.PushedBufBytes = 2048 // one ring slot: a late 2-fragment push overflows
	c := cluster.New(cfg)
	var ctl *adapt.Controller
	if adaptive {
		ac := adapt.DefaultConfig()
		// Never push more than the receiver's pushed buffer: beyond it a
		// fully pushed message both overflows (go-back-N recovery) and
		// yields no pull-request feedback to learn from.
		ac.Max = cfg.Opts.PushedBufBytes
		ctl = adapt.NewController(ac)
		c.Stacks[0].SetAdapter(ctl)
	}

	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(1, 0)
	const size = 3000
	msg := make([]byte, size)
	credit := []byte{1, 2, 3, 4}
	src := sender.Alloc(size)
	creditDst := sender.Alloc(4)
	dst := receiver.Alloc(size)
	creditSrc := receiver.Alloc(4)

	sendStart := make([]sim.Time, 2*iters)
	recvDone := make([]sim.Time, 2*iters)

	c.Nodes[0].Spawn("sender", sender.CPU, func(t *smp.Thread) {
		for i := 0; i < 2*iters; i++ {
			_, err := sender.Recv(t, receiver.ID, creditDst, 4)
			must(err)
			sendStart[i] = t.Now()
			must(sender.Send(t, receiver.ID, src, msg))
		}
	})
	c.Nodes[1].Spawn("receiver", receiver.CPU, func(t *smp.Thread) {
		for i := 0; i < 2*iters; i++ {
			must(receiver.Send(t, sender.ID, creditSrc, credit))
			if i >= iters {
				// Late phase: the push lands ~70 µs after the credit; the
				// receive is posted ~300 µs after it, every time.
				t.Compute(60_000)
			}
			_, err := receiver.Recv(t, sender.ID, dst, size)
			must(err)
			recvDone[i] = t.Now()
		}
	})
	c.Run()

	phase := func(from, to int) float64 {
		xs := make([]float64, 0, to-from)
		for i := from; i < to; i++ {
			xs = append(xs, recvDone[i].Sub(sendStart[i]).Microseconds())
		}
		return stats.TrimmedMean(xs, 0.10)
	}
	early, late = phase(0, iters), phase(iters, 2*iters)
	wasted = c.Stacks[1].DiscardedBytes()
	finalBTP = 760
	if ctl != nil {
		finalBTP = ctl.Current(pushpull.ChannelID{From: sender.ID, To: receiver.ID})
	}
	return early, late, wasted, finalBTP
}

func runAdaptive(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Adaptive BTP (§3: \"applications can dynamically change the size of the pushed buffer\"): 3000 B messages, 2 KB pushed buffer",
		"phase (0=early recv, 1=late recv)", "send-to-complete µs, middle-80% mean")
	sEarly, sLate, dis, btp := adaptivePhases(p, false)
	aEarly, aLate, adis, abtp := adaptivePhases(p, true)
	st := tab.AddSeries("static BTP=760")
	st.Add(0, sEarly)
	st.Add(1, sLate)
	ad := tab.AddSeries("adaptive AIMD")
	ad.Add(0, aEarly)
	ad.Add(1, aLate)
	tab.Comment = fmt.Sprintf(
		"static: %d B of pushes discarded and re-pulled, BTP stays %d; adaptive: %d B wasted, BTP ends at %d — AIMD finds the largest push the late receiver's buffer absorbs",
		dis, btp, adis, abtp)
	return []*stats.Table{tab}
}

// runCollective measures allreduce at the application layer across
// messaging modes on a four-node COMP.
func runCollective(p Params) []*stats.Table {
	iters := min(p.Iters, 50) // each iteration is a full collective on 4 nodes
	tab := stats.NewTable(
		"Collective layer: 4-node allreduce (recursive doubling) vs vector size",
		"vector(B)", "µs per allreduce, mean over iterations")
	for _, mode := range []pushpull.Mode{pushpull.PushPull, pushpull.PushZero, pushpull.PushAll, pushpull.ThreePhase} {
		s := tab.AddSeries(mode.String())
		for _, vec := range []int{64, 1024, 8192} {
			perOp, _ := timedCollective(comp(4, mode, false), iters, func(r *coll.Rank) {
				r.AllReduce(rankVector(r, vec), coll.XorBytes, coll.WithAlgorithm(coll.RecursiveDoubling))
			})
			s.Add(float64(vec), perOp)
		}
	}
	tab.Comment = "collective steps are the §5.3 early/late races; push-all is fastest at every size and push-pull matches it at 64 B, beating push-zero and three-phase up to 1 KB, but at 8 KB push-pull is the slowest of the four"
	return []*stats.Table{tab}
}

// comp is the COMP of the collective experiments: nodes one-process
// nodes running mode with 64 KB pushed buffers, joined by a switch when
// switched.
func comp(nodes int, mode pushpull.Mode, switched bool) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.UseSwitch = nodes, switched
	cfg.Opts.Mode = mode
	cfg.Opts.PushedBufBytes = 64 << 10
	return cfg
}

// rankVector is rank r's n-byte allreduce contribution.
func rankVector(r *coll.Rank, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.ID() + i)
	}
	return data
}

// timedCollective runs iters of body on every rank of a fresh cluster
// built from cfg, between two barriers, and reports rank 0's mean
// virtual time per op in µs plus the busiest node's transmitted wire
// bytes per op.
func timedCollective(cfg cluster.Config, iters int, body func(r *coll.Rank)) (perOp, maxTxPerOp float64) {
	c := cluster.New(cfg)
	var start, end sim.Time
	coll.NewWorld(c).Run(func(r *coll.Rank) {
		r.Barrier()
		if r.ID() == 0 {
			start = r.Thread().Now()
		}
		for i := 0; i < iters; i++ {
			body(r)
		}
		r.Barrier()
		if r.ID() == 0 {
			end = r.Thread().Now()
		}
	})
	var maxTx uint64
	for _, st := range c.Stacks {
		if tx := st.NIC().TxBytes(); tx > maxTx {
			maxTx = tx
		}
	}
	return end.Sub(start).Microseconds() / float64(iters), float64(maxTx) / float64(iters)
}

// LongVectorCollective is timedCollective on a fresh ranks-node
// switched COMP. The hottest node's wire volume is what the
// bandwidth-optimal schedules are judged by: a balanced schedule has no
// hot node, while a rooted tree concentrates full vectors on the root.
// The longvector experiment and TestLongVectorAlgorithmsWin share it.
func LongVectorCollective(ranks, iters int, body func(r *coll.Rank)) (perOp, maxTxPerOp float64) {
	return timedCollective(comp(ranks, pushpull.PushPull, true), iters, body)
}

// runLongVector characterizes the long-vector algorithms: the segmented
// ring Bcast (pipelined chain) against the plain store-and-forward
// ring, and the reduce-scatter + allgather AllReduce against the
// rooted tree, on an eight-node switched COMP.
func runLongVector(p Params) []*stats.Table {
	iters := min(p.Iters, 10) // every iteration moves hundreds of KB through the switch
	const ranks = 8
	sizes := []int{16 << 10, 64 << 10, 256 << 10}
	bcast := func(opts ...coll.Opt) func(r *coll.Rank, n int) {
		return func(r *coll.Rank, n int) {
			var src []byte
			if r.ID() == 0 {
				src = make([]byte, n)
			}
			r.Bcast(0, src, n, opts...)
		}
	}
	allreduce := func(alg coll.Algorithm) func(r *coll.Rank, n int) {
		return func(r *coll.Rank, n int) { r.AllReduce(rankVector(r, n), coll.XorBytes, coll.WithAlgorithm(alg)) }
	}
	variants := []struct {
		label string
		body  func(r *coll.Rank, n int)
	}{
		{"ring (store-and-forward)", bcast(coll.WithAlgorithm(coll.Ring))},
		{"ring-seg (8 KiB segments)", bcast(coll.WithAlgorithm(coll.RingSegmented), coll.WithSegment(8192))},
		{"tree (reduce+bcast)", allreduce(coll.Tree)},
		{"rs-ag (reduce-scatter+allgather)", allreduce(coll.RSAG)},
	}
	// This is the longest experiment and the last one listed, so it
	// runs its independent cells across the pool, as Table runs sweep
	// points; run serially it leaves the other workers idle at the end.
	perOp := make([]float64, len(variants)*len(sizes))
	maxTx := make([]float64, len(perOp))
	scenario.ParallelFor(len(perOp), 0, func(i int) {
		v, n := variants[i/len(sizes)], sizes[i%len(sizes)]
		perOp[i], maxTx[i] = LongVectorCollective(ranks, iters, func(r *coll.Rank) { v.body(r, n) })
	})
	// table adds variants from and from+1 to tab, read from vals.
	table := func(tab *stats.Table, vals []float64, from int) *stats.Table {
		for k := from; k < from+2; k++ {
			s := tab.AddSeries(variants[k].label)
			for j, n := range sizes {
				s.Add(float64(n), vals[k*len(sizes)+j])
			}
		}
		return tab
	}

	bc := table(stats.NewTable(
		"Long-vector Bcast on 8 switched ranks: store-and-forward ring vs segmented (pipelined) ring",
		"vector(B)", "µs per bcast, mean over iterations"), perOp, 0)
	bc.Comment = "segmentation keeps all 7 links busy at once: completion ~T(n) + 6·T(seg) instead of 7·T(n)"
	art := table(stats.NewTable(
		"Long-vector AllReduce on 8 switched ranks: rooted tree vs reduce-scatter + allgather",
		"vector(B)", "µs per allreduce, mean over iterations"), perOp, 2)
	arv := table(stats.NewTable(
		"Long-vector AllReduce volume: busiest node's transmitted wire bytes per operation",
		"vector(B)", "B per op at the hottest NIC"), maxTx, 2)
	arv.Comment = "the tree's root moves ⌈log2 n⌉ full vectors each way; rs-ag moves 2·(n-1)/n of one vector per rank, evenly"
	return []*stats.Table{bc, art, arv}
}

// runScale measures an 8 KB ring allgather while the COMP grows — the
// multi-node scalability the paper's conclusion reaches toward.
func runScale(p Params) []*stats.Table {
	iters := min(p.Iters, 30)
	tab := stats.NewTable(
		"Scalability: 8 KB-per-rank ring allgather vs node count (store-and-forward switch)",
		"nodes", "µs per allgather, mean over iterations")
	for _, mode := range []pushpull.Mode{pushpull.PushPull, pushpull.PushAll} {
		s := tab.AddSeries(mode.String())
		for _, nodes := range []int{2, 3, 4, 6} {
			perOp, _ := timedCollective(comp(nodes, mode, true), iters, func(r *coll.Rank) {
				r.AllGather(make([]byte, 8192), 8192)
			})
			s.Add(float64(nodes), perOp)
		}
	}
	tab.Comment = "ring steps grow linearly with nodes; each step is bounded by the 100 Mbit/s wire, so the curve is near-linear until switch queues contend"
	return []*stats.Table{tab}
}
