package bench

import (
	"fmt"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/scenario"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/stats"
	"pushpull/internal/vm"
)

// Params tunes an experiment run.
type Params struct {
	// Iters caps the timed iterations (messages) of every point; the
	// paper used 1000. Experiments that need fewer use fewer, and the
	// multi-run cells scale it down. Reduce for quicker runs.
	Iters int
}

// per is Iters/k, at least 1: the message count of cells that use a
// fraction of the iterations.
func (p Params) per(k int) int { return max(p.Iters/k, 1) }

// DefaultParams matches the paper's methodology.
func DefaultParams() Params { return Params{Iters: 1000} }

// Experiment is one reproducible artifact of the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the original reports, for side-by-side
	// reading.
	Paper string
	Run   func(p Params) []*stats.Table
}

// All lists every experiment, paper figures first, ablations after.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig3",
			Title: "Figure 3: intranode single-trip latency vs message size (pushed buffer 12 KB)",
			Paper: "7.5 µs minimum at 10 B; Push-All degrades abruptly around 4000 B; Push-Pull steady",
			Run:   curve("fig3", "size(B)"),
		},
		{
			ID:    "fig4",
			Title: "Figure 4: internode latency under the three optimizing techniques (BTP(1)=80, BTP(2)=680)",
			Paper: "identical curves up to 760 B; beyond it full < overlap-only < mask-only < none",
			Run:   curve("fig4", "size(B)"),
		},
		{
			ID:    "fig6-early",
			Title: "Figure 6 (left): early receiver test (x=500k, y=100k NOPs, pushed buffer 4 KB)",
			Paper: "Push-Zero constantly slower; Push-Pull and Push-All close, Push-Pull slightly ahead",
			Run:   curve("fig6-early", "size(B)"),
		},
		{
			ID:    "fig6-late",
			Title: "Figure 6 (right): late receiver test (x=100k, y=300k NOPs, pushed buffer 4 KB)",
			Paper: "Push-All fastest below 3072 B then collapses (~150 ms via go-back-N); Push-Pull < Push-Zero throughout",
			Run:   curve("fig6-late", "size(B)"),
		},
		{
			ID:    "btp2",
			Title: "§5.2 test 1: sweep BTP(2) with BTP(1)=0 (1400 B messages)",
			Paper: "latency falls as BTP(2) grows, bottoming out around 680 B",
			Run:   btpCurve("btp2", "BTP2(B)", "BTP(2)", 680),
		},
		{
			ID:    "btp1",
			Title: "§5.2 test 2: sweep BTP(1) with BTP(2)=680 (1400 B messages)",
			Paper: "small BTP(1) helps; beyond a threshold latency grows — 80 B chosen",
			Run:   btpCurve("btp1", "BTP1(B)", "BTP(1)", 80),
		},
		{
			ID:    "headline",
			Title: "Headline numbers (abstract / §5 / §6)",
			Paper: "intranode 7.5 µs & 350.9 MB/s; internode 34.9 µs & 12.1 MB/s; translation ~12-13 µs hidden",
			Run:   runHeadline,
		},
		{
			ID:    "ablation-interrupt",
			Title: "Ablation: reception-handler invocation method (§2 stage 3, §4.1)",
			Paper: "symmetric interrupt chosen for the optimized configuration",
			Run:   curve("ablation-interrupt", "size(B)"),
		},
		{
			ID:    "ablation-trigger",
			Title: "Ablation: user-level NIC trigger vs kernel driver path (§4.3)",
			Paper: "user-level direct thread invocation required for translation masking",
			Run:   curve("ablation-trigger", "size(B)"),
		},
		{
			ID:    "ablation-zerobuf",
			Title: "Ablation: cross-space zero buffer vs shared-segment double copy (§4.2)",
			Paper: "zero buffer eliminates one copy: bandwidth up, latency down intranode",
			Run:   runAblationZeroBuf,
		},
		{
			ID:    "multirail",
			Title: "Extension (§6 outlook): bandwidth scaling with multiple NICs per node",
			Paper: "future work in the paper: 'a more general mechanism to work with multiple network interfaces'",
			Run:   runMultiRail,
		},
		{
			ID:    "ablation-polling",
			Title: "Ablation: polling period vs internode latency (§2 stage 3)",
			Paper: "polling is lightweight but its frequency bounds responsiveness",
			Run:   curve("ablation-polling", "poll period µs (0 = symmetric interrupt)", "latency"),
		},
		{
			ID:    "ablation-pullcpu",
			Title: "Ablation: pull phase on least-loaded CPU vs receiver's CPU (§4.1)",
			Paper: "offloaded pull overlaps communication with computation on other processors",
			Run:   runAblationPullCPU,
		},
		{
			ID:    "threephase",
			Title: "Baseline: classical three-phase handshake protocol vs Push-Pull (§1)",
			Paper: "three-phase 'introduced a significant amount of overheads during the handshaking phase'",
			Run:   runThreePhase,
		},
		{
			ID:    "ablation-loss",
			Title: "Ablation: frame loss rate vs latency and bandwidth (go-back-N recovery, §5.3/[10])",
			Paper: "the implemented go-back-n reliable protocol resumes transmission after drops",
			Run:   runAblationLoss,
		},
		{
			ID:    "hub",
			Title: "Ablation: back-to-back vs switch vs shared-medium hub",
			Paper: "the testbed uses back-to-back Fast Ethernet; a hub halves the wire and collides acks with data",
			Run:   runHub,
		},
		{
			ID:    "adaptive",
			Title: "Extension: adaptive AIMD BTP controller (§3 dynamic pushed-buffer remark)",
			Paper: "applications can dynamically change the size of the pushed buffer to adapt to the runtime environment",
			Run:   runAdaptive,
		},
		{
			ID:    "collective",
			Title: "Application layer: 4-node allreduce across messaging modes",
			Paper: "the compute-then-communicate pattern of §5.3, lifted to whole collectives",
			Run:   runCollective,
		},
		{
			ID:    "scale",
			Title: "Scalability: ring allgather vs node count over a switch",
			Paper: "beyond the paper's two-node testbed; its conclusion asks for multi-interface, multi-node scaling",
			Run:   runScale,
		},
		{
			ID:    "longvector",
			Title: "Long vectors: segmented ring Bcast and reduce-scatter+allgather AllReduce (8 ranks)",
			Paper: "beyond the paper: bandwidth-optimal schedules keep every link busy once transfers dwarf per-hop latency",
			Run:   runLongVector,
		},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// curve is the Run of a latency-curve experiment: latencyCurve of the
// builtin sweep id.
func curve(id, xLabel string, single ...string) func(Params) []*stats.Table {
	return func(p Params) []*stats.Table { return []*stats.Table{latencyCurve(id, p.Iters, xLabel, single...)} }
}

// testbed is the paper's two-node testbed running a size-byte ping-pong
// messages times.
func testbed(size, messages int) scenario.Spec {
	s := scenario.DefaultSpec()
	s.Traffic.Size, s.Traffic.Messages = size, messages
	return s
}

// intranode moves s onto one SMP node: both processes on node 0.
func intranode(s scenario.Spec) scenario.Spec {
	s.Topology.Kind, s.Topology.Nodes, s.Topology.ProcsPerNode = "intranode", 1, 2
	return s
}

// btpCurve is the Run of a BTP sweep: the curve, commented with where
// its minimum falls against the value the paper picks.
func btpCurve(id, xLabel, btp string, pick int) func(Params) []*stats.Table {
	return func(p Params) []*stats.Table {
		tab := latencyCurve(id, p.Iters, xLabel, "push-pull")
		tab.Comment = fmt.Sprintf("paper picks %s=%d; this run's minimum is at %g", btp, pick, argminX(tab.Series[0]))
		return []*stats.Table{tab}
	}
}

func runThreePhase(p Params) []*stats.Table {
	tab := latencyCurve("threephase", p.Iters, "size(B)")
	tab.Comment = "the paper's §1 motivation: the handshake penalizes every size, worst in relative terms for short messages"
	return []*stats.Table{tab}
}

func argminX(s *stats.Series) float64 {
	bestX, bestY := 0.0, 0.0
	for i, pt := range s.Points {
		if i == 0 || pt.Y < bestY {
			bestX, bestY = pt.X, pt.Y
		}
	}
	return bestX
}

func runHeadline(p Params) []*stats.Table {
	tab := stats.NewTable("Headline numbers: paper vs this reproduction", "row", "value")
	paper := tab.AddSeries("paper")
	ours := tab.AddSeries("measured")
	row := 0
	add := func(name string, paperVal, ourVal float64) {
		tab.Comment += fmt.Sprintf("row %d: %s; ", row, name)
		paper.Add(float64(row), paperVal)
		ours.Add(float64(row), ourVal)
		row++
	}

	intra := func(size, messages int) scenario.Spec {
		s := intranode(testbed(size, messages))
		s.Protocol.PushedBufBytes = 12 << 10
		return s
	}
	add("intranode 10B single-trip µs", 7.5, Latency(intra(10, p.Iters)).TrimmedMean)

	peak := func(spec func(size, messages int) scenario.Spec, messages int, sizes ...int) float64 {
		best := 0.0
		for _, n := range sizes {
			best = max(best, Bandwidth(spec(n, messages)))
		}
		return best
	}
	add("intranode peak bandwidth MB/s", 350.9, peak(intra, p.per(4), 2000, 4000, 8192, 16384))

	add("internode 4B single-trip µs", 34.9, Latency(testbed(4, p.Iters)).TrimmedMean)

	add("internode peak bandwidth MB/s", 12.1, peak(testbed, p.per(10), 16384, 65536))

	add("address translation of a 64KB message µs (paper: ~12-13 hidden by masking)",
		12.5, vm.DefaultCostModel().Cost(0, 64<<10).Microseconds())

	add("push-all late-receiver 3072B recovery ms (paper: ~150)",
		150, Latency(pushAllLateOneShot()).Mean/1000)

	return []*stats.Table{tab}
}

// pushAllLateOneShot is the paper's Push-All collapse: one 3072 B
// transfer into a 4 KB pushed buffer whose receiver posts 1 ms late, so
// the third fragment is dropped and only a go-back-N timeout recovers
// it. Its one sample is the completion time in µs, untrimmed.
func pushAllLateOneShot() scenario.Spec {
	s := testbed(3072, 1)
	s.Protocol.Mode = "push-all"
	s.Protocol.PushedBufBytes = 4096
	s.Traffic.Pattern, s.Traffic.DelayUS = "oneshot", 1000
	return s
}

func runAblationZeroBuf(p Params) []*stats.Table {
	sw := sweep("ablation-zerobuf")
	sw.Base.Traffic.Messages = p.per(2)
	return []*stats.Table{
		Table(sw, "Ablation: intranode latency, zero buffer vs shared-segment double copy",
			"size(B)", "single-trip µs, middle-80% mean", trimmedMean),
		Table(sw, "Ablation: intranode bandwidth, zero buffer vs shared-segment double copy",
			"size(B)", "MB/s", bandwidth),
	}
}

// runAblationPullCPU measures how much a co-scheduled computation slows
// down when the intranode pull threads run on its CPU instead of an idle
// one: the §4.1 overlap argument, quantified.
func runAblationPullCPU(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Ablation: compute slowdown from pull placement (100 x 8 KB messages during a 10 ms computation)",
		"row", "worker completion ms")
	labels := []string{"least-loaded", "receiver-cpu"}
	tab.Comment = "row 0: worker co-located with the receiving process (CPU 1)"
	for _, label := range labels {
		s := tab.AddSeries(label)
		opts := pushpull.DefaultOptions()
		opts.PushedBufBytes = 64 << 10
		opts.PullLocal = label == "receiver-cpu"
		cfg := cluster.DefaultConfig()
		cfg.Opts = opts
		cfg.Nodes = 1
		cfg.ProcsPerNode = 2
		c := cluster.New(cfg)
		a, b := c.Endpoint(0, 0), c.Endpoint(0, 1)
		const msgs = 100
		const msgSize = 8192
		src, dst := a.Alloc(msgSize), b.Alloc(msgSize)
		payload := make([]byte, msgSize)
		c.Spawn(0, a.CPU, "sender", func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				must(a.Send(t, b.ID, src, payload))
			}
		})
		c.Spawn(0, b.CPU, "receiver", func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				_, err := b.Recv(t, a.ID, dst, msgSize)
				must(err)
			}
		})
		var workerDone sim.Time
		// The worker shares CPU 1 with the receiving process.
		c.Spawn(0, b.CPU, "worker", func(t *smp.Thread) {
			t.Compute(2_000_000) // 10 ms at 200 MHz
			workerDone = t.Now()
		})
		c.Run()
		s.Add(0, sim.Duration(workerDone).Microseconds()/1000)
	}
	return []*stats.Table{tab}
}

// runMultiRail measures internode bandwidth at 64 KB messages with 1-4
// NICs per node, demonstrating the §6 extension: fragments stripe across
// rails, so aggregate bandwidth approaches rails x 12.1 MB/s.
func runMultiRail(p Params) []*stats.Table {
	sw := sweep("multirail")
	sw.Base.Traffic.Messages = p.per(20)
	return []*stats.Table{Table(sw, "Extension: internode bandwidth vs NIC rails (64 KB messages)",
		"rails", "MB/s", bandwidth, "push-pull")}
}
