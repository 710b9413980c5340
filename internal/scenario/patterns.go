package scenario

import (
	"errors"
	"fmt"
	"sort"

	"pushpull/comm"
	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// patternFunc drives one traffic shape on a built cluster and returns
// the per-message latency samples (µs) plus the payload bytes the
// pattern delivered. Implementations spawn threads, call c.Run()
// exactly once, and must be deterministic given the cluster's seed.
// Patterns program against the public comm API — the same surface the
// examples and collectives use.
type patternFunc func(c *cluster.Cluster, s Spec) (samples []float64, bytes uint64, err error)

// patternDoc describes one pattern for listings.
type patternDoc struct {
	run patternFunc
	doc string
}

var patterns = map[string]patternDoc{
	"pingpong":    {runPingPong, "two endpoints ping-pong Messages times; samples are half round trips (paper Figs. 3/4)"},
	"bandwidth":   {runBandwidthPattern, "unidirectional stream with a 4 B ack per message; samples are send+ack times (paper §5 bandwidth)"},
	"earlylate":   {runEarlyLate, "compute-then-communicate ping-pong with ComputeX/ComputeY NOPs (paper Fig. 6)"},
	"oneshot":     {runOneShot, "one untimed transfer with the receiver delayed DelayUS; the sample is the completion time"},
	"hotspot":     {runHotspot, "every rank sends Messages messages to rank Root; all-to-one buffer pressure"},
	"permutation": {runPermutation, "each rank streams to a seed-derived fixed-point-free permutation partner"},
	"bursty":      {runBursty, "sender ranks emit BurstLen-message bursts separated by BurstIdleUS of silence"},
	"pipeline":    {runPipeline, "rank 0 feeds a store-and-forward chain through every rank; samples are end-to-end"},
	"wavefront":   {runWavefront, "irregular: each received message triggers Fanout sends of data-derived sizes to data-derived targets"},
	"allreduce":   {runAllReduce, "collective: world-wide Size-byte allreduce, Messages ops; Algorithm picks tree | recursive-doubling | ring | rs-ag"},
	"bcast":       {runBcast, "collective: rank Root broadcasts Size bytes, Messages ops; Algorithm picks binomial | ring | ring-seg (SegmentBytes sets the pipeline segment)"},
	"alltoall":    {runAllToAll, "collective: Messages rounds of the full block shuffle, one Size-byte block per directed rank pair"},
	"halo":        {runHalo, "collective: 1-D halo exchange with rank-skewed compute (ComputeX + rank*ComputeY cycles), Size-byte halos"},
}

// PatternNames lists the traffic patterns, sorted.
func PatternNames() []string {
	names := make([]string, 0, len(patterns))
	for name := range patterns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PatternDoc returns the one-line description of a pattern.
func PatternDoc(name string) string { return patterns[name].doc }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// defaultVirtualBudget bounds runs whose spec does not set one: ten
// virtual minutes, far beyond any legitimate scenario on this testbed.
const defaultVirtualBudget = 10 * 60 * 1000 // ms

// ErrVirtualBudget marks a run that exhausted its virtual-time budget
// with events still pending — the signature of a protocol deadlock or
// retransmission livelock. It is cluster.ErrBudget (the same condition
// reported by cluster.RunWithin). Check with errors.Is;
// cmd/pushpull-scen turns it into a distinct exit code so CI detects
// stalls mechanically.
var ErrVirtualBudget = cluster.ErrBudget

// IsBudgetError reports whether err is a virtual-time-budget exhaustion.
func IsBudgetError(err error) bool { return errors.Is(err, ErrVirtualBudget) }

// IsPeerUnreachable reports whether err is (or wraps) a structured
// unreachable-peer failure: the transport exhausted its retransmission
// budget toward a dead node and failed the operation instead of
// retrying forever. Distinct from IsBudgetError — the run ended with a
// diagnosis, not a stall; cmd/pushpull-scen gives it its own exit code.
func IsPeerUnreachable(err error) bool { return errors.Is(err, pushpull.ErrPeerUnreachable) }

// runSim drives the cluster within the spec's virtual-time budget. It
// returns an ErrVirtualBudget-wrapping error if the budget expired with
// events still pending (see Spec.MaxVirtualMS); the caller's own
// completion checks add pattern context.
//
// Either way the cluster is shut down before returning: a budget-
// exhausted run leaves rank threads and protocol helpers parked, and
// without the teardown each one would leak its goroutine for the life of
// the sweep.
func runSim(c *cluster.Cluster, s Spec) error {
	budget := s.MaxVirtualMS
	if budget <= 0 {
		budget = defaultVirtualBudget
	}
	limit := sim.Time(0).Add(sim.Duration(budget * float64(sim.Millisecond)))
	c.RunUntil(limit)
	pending := c.Pending()
	c.Shutdown()
	if pending > 0 {
		return fmt.Errorf("scenario: %w: %g ms elapsed with %d events still pending — protocol deadlock or retransmission livelock",
			ErrVirtualBudget, budget, pending)
	}
	return nil
}

// pair returns the two communicating processes of the two-endpoint
// patterns: (0,0) and, on a single-node cluster, (0,1), otherwise (1,0)
// — the paper's intranode and internode routes.
func pair(c *cluster.Cluster) (a, b *comm.Comm) {
	a = comm.At(c, 0, 0)
	if len(c.Nodes) == 1 {
		return a, comm.At(c, 0, 1)
	}
	return a, comm.At(c, 1, 0)
}

// barrier performs the paper's barrier: a simple 4-byte ping-pong.
func barrier(t *smp.Thread, self *comm.Comm, peer comm.ProcessID, initiator bool) error {
	tiny := []byte{1, 2, 3, 4}
	if initiator {
		if err := self.Send(t, peer, tiny); err != nil {
			return err
		}
		_, err := self.Recv(t, peer, 4)
		return err
	}
	if _, err := self.Recv(t, peer, 4); err != nil {
		return err
	}
	return self.Send(t, peer, tiny)
}

// spawn starts a thread on the process's own node and CPU.
func spawn(c *cluster.Cluster, cm *comm.Comm, name string, body func(t *smp.Thread)) {
	c.Nodes[cm.ID().Node].Spawn(name, cm.Endpoint().CPU, body)
}

// runPingPong is the paper's latency test: Messages timed round trips
// after one barrier; each sample is half a round trip in microseconds.
func runPingPong(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	a, b := pair(c)
	n := s.Traffic.Size
	iters := s.Traffic.Messages
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i)
	}
	samples := make([]float64, 0, iters)

	spawn(c, a, "ping", func(t *smp.Thread) {
		must(barrier(t, a, b.ID(), true))
		for i := 0; i < iters; i++ {
			start := t.Now()
			must(a.Send(t, b.ID(), msg))
			_, err := a.Recv(t, b.ID(), n)
			must(err)
			rt := t.Now().Sub(start)
			samples = append(samples, rt.Microseconds()/2)
		}
	})
	spawn(c, b, "pong", func(t *smp.Thread) {
		must(barrier(t, b, a.ID(), false))
		for i := 0; i < iters; i++ {
			_, err := b.Recv(t, a.ID(), n)
			must(err)
			must(b.Send(t, a.ID(), msg))
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: ping-pong finished %d of %d iterations (deadlock?)", len(samples), iters)
	}
	return samples, uint64(2*iters) * uint64(n), nil
}

// runBandwidthPattern is the paper's bandwidth test body: Messages
// iterations of "send Size bytes, receive a 4-byte acknowledgement";
// each sample is one send+ack time in microseconds. (The paper's MB/s
// figure subtracts a 4-byte single-trip baseline; internal/bench and the
// Result's Throughput field both derive rates from these samples.)
func runBandwidthPattern(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	a, b := pair(c)
	n := s.Traffic.Size
	iters := s.Traffic.Messages
	msg := make([]byte, n)
	ackBuf := []byte{1, 2, 3, 4}
	samples := make([]float64, 0, iters)

	spawn(c, a, "src", func(t *smp.Thread) {
		must(barrier(t, a, b.ID(), true))
		for i := 0; i < iters; i++ {
			start := t.Now()
			must(a.Send(t, b.ID(), msg))
			_, err := a.Recv(t, b.ID(), 4)
			must(err)
			samples = append(samples, t.Now().Sub(start).Microseconds())
		}
	})
	spawn(c, b, "sink", func(t *smp.Thread) {
		must(barrier(t, b, a.ID(), false))
		for i := 0; i < iters; i++ {
			_, err := b.Recv(t, a.ID(), n)
			must(err)
			must(b.Send(t, a.ID(), ackBuf))
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: bandwidth finished %d of %d iterations (deadlock?)", len(samples), iters)
	}
	return samples, uint64(iters) * uint64(n), nil
}

// runEarlyLate is the paper's redesigned ping-pong (Fig. 5): both sides
// compute before they communicate, with ComputeX and ComputeY NOP
// counts steering who arrives first. Samples are half ping durations.
func runEarlyLate(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	a, b := pair(c)
	n := s.Traffic.Size
	iters := s.Traffic.Messages
	x, y := s.Traffic.ComputeX, s.Traffic.ComputeY
	msg := make([]byte, n)
	samples := make([]float64, 0, iters)

	spawn(c, a, "ping", func(t *smp.Thread) {
		for i := 0; i < iters; i++ {
			must(barrier(t, a, b.ID(), true))
			start := t.Now()
			t.Compute(x)
			must(a.Send(t, b.ID(), msg))
			t.Compute(y)
			_, err := a.Recv(t, b.ID(), n)
			must(err)
			samples = append(samples, t.Now().Sub(start).Microseconds()/2)
		}
	})
	spawn(c, b, "pong", func(t *smp.Thread) {
		for i := 0; i < iters; i++ {
			must(barrier(t, b, a.ID(), false))
			t.Compute(y)
			_, err := b.Recv(t, a.ID(), n)
			must(err)
			t.Compute(x)
			must(b.Send(t, a.ID(), msg))
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: early/late finished %d of %d iterations (deadlock?)", len(samples), iters)
	}
	return samples, uint64(2*iters) * uint64(n), nil
}

// runOneShot measures a single warmup-free transfer end to end with the
// receiver's start delayed by DelayUS; the one sample is the completion
// time in microseconds (used by the go-back-N recovery measurements,
// where trimming would hide the event under test).
func runOneShot(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	a, b := pair(c)
	n := s.Traffic.Size
	msg := make([]byte, n)
	recvDelay := sim.Duration(s.Traffic.DelayUS * float64(sim.Microsecond))
	var done sim.Time
	spawn(c, a, "src", func(t *smp.Thread) {
		must(a.Send(t, b.ID(), msg))
	})
	c.Nodes[b.ID().Node].SpawnAt(recvDelay, "dst-recv", b.Endpoint().CPU, func(t *smp.Thread) {
		_, err := b.Recv(t, a.ID(), n)
		must(err)
		done = t.Now()
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if done == 0 {
		return nil, 0, fmt.Errorf("scenario: oneshot transfer never completed")
	}
	return []float64{sim.Duration(done).Microseconds()}, uint64(n), nil
}

// ranks flattens the cluster's processes in (node, proc) order.
func ranks(c *cluster.Cluster) []*comm.Comm {
	cms := make([]*comm.Comm, 0, c.Procs())
	for node := range c.Nodes {
		for proc := 0; proc < c.ProcsPerNode(); proc++ {
			cms = append(cms, comm.At(c, node, proc))
		}
	}
	return cms
}

// runHotspot drives the all-to-one shape: every rank except Root sends
// Messages messages of Size bytes to Root, which services its senders
// round-robin. With enough senders the root's pushed buffer overflows,
// exercising discard-and-repull (Push-Pull) or per-channel go-back-N
// recovery (fully eager) under contention. Samples are send-start to
// receive-complete times.
func runHotspot(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	cms := ranks(c)
	root := s.Traffic.Root
	if root < 0 || root >= len(cms) {
		return nil, 0, fmt.Errorf("scenario: hotspot root %d out of range (%d ranks)", root, len(cms))
	}
	if len(cms) < 2 {
		return nil, 0, fmt.Errorf("scenario: hotspot needs at least 2 ranks, have %d", len(cms))
	}
	n := s.Traffic.Size
	msgs := s.Traffic.Messages
	sink := cms[root]
	var senders []*comm.Comm
	for r, cm := range cms {
		if r != root {
			senders = append(senders, cm)
		}
	}

	starts := make([][]sim.Time, len(senders))
	dones := make([][]sim.Time, len(senders))
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	for si, cm := range senders {
		si, cm := si, cm
		starts[si] = make([]sim.Time, msgs)
		dones[si] = make([]sim.Time, msgs)
		spawn(c, cm, fmt.Sprintf("hot-src%d", si), func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				starts[si][i] = t.Now()
				must(cm.Send(t, sink.ID(), payload))
			}
		})
	}
	spawn(c, sink, "hot-sink", func(t *smp.Thread) {
		for i := 0; i < msgs; i++ {
			for si, cm := range senders {
				_, err := sink.Recv(t, cm.ID(), n)
				must(err)
				dones[si][i] = t.Now()
			}
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}

	samples := make([]float64, 0, len(senders)*msgs)
	for si := range senders {
		for i := 0; i < msgs; i++ {
			if dones[si][i] == 0 {
				return nil, 0, fmt.Errorf("scenario: hotspot sender %d message %d never completed", si, i)
			}
			samples = append(samples, dones[si][i].Sub(starts[si][i]).Microseconds())
		}
	}
	return samples, uint64(len(senders)*msgs) * uint64(n), nil
}

// permutationOf derives a deterministic fixed-point-free permutation of
// p elements from seed (Fisher-Yates off the scenario's own stream, then
// a rotation fix-up for any fixed points).
func permutationOf(p int, seed uint64) []int {
	rng := sim.NewRand(seed ^ 0xA5C3_96E7_D18B_42F0)
	perm := make([]int, p)
	for i := range perm {
		perm[i] = i
	}
	for i := p - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < p; i++ {
		if perm[i] == i {
			perm[i], perm[(i+1)%p] = perm[(i+1)%p], perm[i]
		}
	}
	return perm
}

// runPermutation streams Messages messages of Size bytes from every rank
// to its seed-derived permutation partner, all channels concurrently —
// the classic random-permutation stress of an interconnect. Each rank
// runs one sender and one receiver thread.
func runPermutation(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	cms := ranks(c)
	p := len(cms)
	if p < 2 {
		return nil, 0, fmt.Errorf("scenario: permutation needs at least 2 ranks, have %d", p)
	}
	perm := permutationOf(p, s.Seed)
	inv := make([]int, p)
	for i, t := range perm {
		inv[t] = i
	}
	n := s.Traffic.Size
	msgs := s.Traffic.Messages
	payload := make([]byte, n)

	starts := make([][]sim.Time, p)
	dones := make([][]sim.Time, p)
	for r, cm := range cms {
		r, cm := r, cm
		starts[r] = make([]sim.Time, msgs)
		dones[r] = make([]sim.Time, msgs)
		to := cms[perm[r]].ID()
		from := cms[inv[r]].ID()
		spawn(c, cm, fmt.Sprintf("perm-src%d", r), func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				starts[r][i] = t.Now()
				must(cm.Send(t, to, payload))
			}
		})
		spawn(c, cm, fmt.Sprintf("perm-dst%d", r), func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				_, err := cm.Recv(t, from, n)
				must(err)
				// Completion of sender inv[r]'s i-th message.
				dones[inv[r]][i] = t.Now()
			}
		})
	}
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}

	samples := make([]float64, 0, p*msgs)
	for r := 0; r < p; r++ {
		for i := 0; i < msgs; i++ {
			if dones[r][i] == 0 {
				return nil, 0, fmt.Errorf("scenario: permutation rank %d message %d never completed", r, i)
			}
			samples = append(samples, dones[r][i].Sub(starts[r][i]).Microseconds())
		}
	}
	return samples, uint64(p*msgs) * uint64(n), nil
}

// runBursty pairs the first half of the ranks with the second half;
// every sender emits BurstLen back-to-back messages, idles BurstIdleUS,
// and repeats until Messages messages are out. The off periods let
// receivers drain, so latency is bimodal: head-of-burst messages see a
// quiet network, tail-of-burst messages queue behind their own burst.
func runBursty(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	cms := ranks(c)
	p := len(cms)
	if p < 2 || p%2 != 0 {
		return nil, 0, fmt.Errorf("scenario: bursty needs an even rank count >= 2, have %d", p)
	}
	burst := s.Traffic.BurstLen
	if burst <= 0 {
		burst = 8
	}
	idle := sim.Duration(s.Traffic.BurstIdleUS * float64(sim.Microsecond))
	n := s.Traffic.Size
	msgs := s.Traffic.Messages
	payload := make([]byte, n)
	half := p / 2

	starts := make([][]sim.Time, half)
	dones := make([][]sim.Time, half)
	for si := 0; si < half; si++ {
		si := si
		src, dst := cms[si], cms[half+si]
		starts[si] = make([]sim.Time, msgs)
		dones[si] = make([]sim.Time, msgs)
		spawn(c, src, fmt.Sprintf("burst-src%d", si), func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				if i > 0 && i%burst == 0 && idle > 0 {
					t.P.Sleep(idle)
				}
				starts[si][i] = t.Now()
				must(src.Send(t, dst.ID(), payload))
			}
		})
		spawn(c, dst, fmt.Sprintf("burst-dst%d", si), func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				_, err := dst.Recv(t, src.ID(), n)
				must(err)
				dones[si][i] = t.Now()
			}
		})
	}
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}

	samples := make([]float64, 0, half*msgs)
	for si := 0; si < half; si++ {
		for i := 0; i < msgs; i++ {
			if dones[si][i] == 0 {
				return nil, 0, fmt.Errorf("scenario: bursty pair %d message %d never completed", si, i)
			}
			samples = append(samples, dones[si][i].Sub(starts[si][i]).Microseconds())
		}
	}
	return samples, uint64(half*msgs) * uint64(n), nil
}

// runPipeline chains every rank: rank 0 generates Messages messages of
// Size bytes, each intermediate rank receives from its predecessor and
// forwards to its successor, and the last rank sinks them. Samples are
// end-to-end (injection to final delivery) times, so pipeline fill and
// per-hop store-and-forward cost both show.
func runPipeline(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	cms := ranks(c)
	p := len(cms)
	if p < 2 {
		return nil, 0, fmt.Errorf("scenario: pipeline needs at least 2 ranks, have %d", p)
	}
	n := s.Traffic.Size
	msgs := s.Traffic.Messages
	payload := make([]byte, n)
	starts := make([]sim.Time, msgs)
	dones := make([]sim.Time, msgs)

	head := cms[0]
	spawn(c, head, "pipe-head", func(t *smp.Thread) {
		for i := 0; i < msgs; i++ {
			starts[i] = t.Now()
			must(head.Send(t, cms[1].ID(), payload))
		}
	})
	for r := 1; r < p-1; r++ {
		r := r
		cm := cms[r]
		spawn(c, cm, fmt.Sprintf("pipe-stage%d", r), func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				_, err := cm.Recv(t, cms[r-1].ID(), n)
				must(err)
				must(cm.Send(t, cms[r+1].ID(), payload))
			}
		})
	}
	tail := cms[p-1]
	spawn(c, tail, "pipe-tail", func(t *smp.Thread) {
		for i := 0; i < msgs; i++ {
			_, err := tail.Recv(t, cms[p-2].ID(), n)
			must(err)
			dones[i] = t.Now()
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}

	samples := make([]float64, 0, msgs)
	for i := 0; i < msgs; i++ {
		if dones[i] == 0 {
			return nil, 0, fmt.Errorf("scenario: pipeline message %d never reached the tail", i)
		}
		samples = append(samples, dones[i].Sub(starts[i]).Microseconds())
	}
	return samples, uint64((p-1)*msgs) * uint64(n), nil
}
