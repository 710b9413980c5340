package coll

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"pushpull/comm"
	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
)

// newWorld builds a world of nodes×procs ranks in the given mode.
func newWorld(nodes, procs int, mode pushpull.Mode, opts ...WorldOption) *World {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = procs
	if nodes > 2 {
		cfg.UseSwitch = true
	}
	cfg.Opts.Mode = mode
	cfg.Opts.PushedBufBytes = 64 << 10
	return NewWorld(cluster.New(cfg), opts...)
}

// fill builds rank-specific payloads.
func fill(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*131 + i*7)
	}
	return b
}

func TestWorldSizeAndMapping(t *testing.T) {
	w := newWorld(2, 3, pushpull.PushPull)
	if w.Size() != 6 {
		t.Fatalf("Size = %d, want 6", w.Size())
	}
	// Node-major: ranks 0-2 on node 0, ranks 3-5 on node 1.
	seen := make(map[int][2]int)
	w.Run(func(r *Rank) {
		seen[r.ID()] = [2]int{r.Comm().ID().Node, r.Comm().ID().Proc}
	})
	for rank := 0; rank < 6; rank++ {
		want := [2]int{rank / 3, rank % 3}
		if seen[rank] != want {
			t.Errorf("rank %d on %v, want %v", rank, seen[rank], want)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, alg := range Algorithms(OpBarrier) {
		for _, shape := range [][2]int{{2, 1}, {2, 2}, {3, 1}, {4, 2}} {
			w := newWorld(shape[0], shape[1], pushpull.PushPull)
			size := w.Size()
			enter := make([]sim.Time, size)
			exit := make([]sim.Time, size)
			w.Run(func(r *Rank) {
				// Stagger arrivals so the barrier has real work to do.
				r.Compute(int64(r.ID()) * 50_000)
				enter[r.ID()] = r.Thread().Now()
				r.Barrier(WithAlgorithm(alg))
				exit[r.ID()] = r.Thread().Now()
			})
			var maxEnter, minExit sim.Time
			minExit = 1 << 62
			for i := 0; i < size; i++ {
				if enter[i] > maxEnter {
					maxEnter = enter[i]
				}
				if exit[i] < minExit {
					minExit = exit[i]
				}
			}
			if minExit < maxEnter {
				t.Errorf("%s %dx%d: rank left the barrier at %v before the last arrival at %v",
					alg, shape[0], shape[1], minExit, maxEnter)
			}
		}
	}
}

func TestBcastFromEveryRootAllAlgorithms(t *testing.T) {
	const n = 3000
	for _, alg := range Algorithms(OpBcast) {
		size := 6
		for root := 0; root < size; root++ {
			w := newWorld(3, 2, pushpull.PushPull)
			payload := fill(root, n)
			got := make([][]byte, size)
			w.Run(func(r *Rank) {
				var data []byte
				if r.ID() == root {
					data = payload
				}
				got[r.ID()] = r.Bcast(root, data, n, WithAlgorithm(alg))
			})
			for i := 0; i < size; i++ {
				if !bytes.Equal(got[i], payload) {
					t.Errorf("%s root %d: rank %d received wrong data", alg, root, i)
				}
			}
		}
	}
}

func TestReduceSumAllAlgorithms(t *testing.T) {
	const elems = 64
	for _, alg := range Algorithms(OpReduce) {
		w := newWorld(2, 2, pushpull.PushPull)
		size := w.Size()
		var res []byte
		w.Run(func(r *Rank) {
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64(r.ID()*1000 + i)
			}
			if out := r.Reduce(1, FromInt64s(vals), SumInt64, WithAlgorithm(alg)); r.ID() == 1 {
				res = out
			} else if out != nil {
				t.Errorf("%s: non-root rank %d got a reduce result", alg, r.ID())
			}
		})
		got := Int64s(res)
		for i := 0; i < elems; i++ {
			var want int64
			for rank := 0; rank < size; rank++ {
				want += int64(rank*1000 + i)
			}
			if got[i] != want {
				t.Fatalf("%s: element %d = %d, want %d", alg, i, got[i], want)
			}
		}
	}
}

func TestAllReduceAllAlgorithmsAgree(t *testing.T) {
	// Include non-power-of-two world sizes: the recursive-doubling
	// fold-in/fold-out fixup is the part worth testing.
	for _, shape := range [][2]int{{2, 1}, {3, 1}, {2, 2}, {5, 1}, {3, 2}, {4, 2}} {
		shape := shape
		t.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(t *testing.T) {
			const elems = 16
			run := func(alg Algorithm) [][]byte {
				w := newWorld(shape[0], shape[1], pushpull.PushPull)
				out := make([][]byte, w.Size())
				w.Run(func(r *Rank) {
					vals := make([]int64, elems)
					for i := range vals {
						vals[i] = int64((r.ID() + 1) * (i + 1))
					}
					out[r.ID()] = r.AllReduce(FromInt64s(vals), SumInt64, WithAlgorithm(alg))
				})
				return out
			}
			var size int
			want := make([]int64, elems)
			for _, alg := range Algorithms(OpAllReduce) {
				got := run(alg)
				if size == 0 {
					size = len(got)
					for i := range want {
						for rank := 0; rank < size; rank++ {
							want[i] += int64((rank + 1) * (i + 1))
						}
					}
				}
				for rank := 0; rank < size; rank++ {
					gv := Int64s(got[rank])
					for i := 0; i < elems; i++ {
						if gv[i] != want[i] {
							t.Fatalf("%s rank %d elem %d = %d, want %d", alg, rank, i, gv[i], want[i])
						}
					}
				}
			}
		})
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	const n = 500
	w := newWorld(2, 2, pushpull.PushPull)
	size := w.Size()
	const root = 2
	var gathered [][]byte
	scattered := make([][]byte, size)
	w.Run(func(r *Rank) {
		// Gather everyone's block on root, then scatter it back.
		g := r.Gather(root, fill(r.ID(), n), n)
		if r.ID() == root {
			gathered = g
		}
		scattered[r.ID()] = r.Scatter(root, g, n)
	})
	for i := 0; i < size; i++ {
		if !bytes.Equal(gathered[i], fill(i, n)) {
			t.Errorf("gather: block %d wrong", i)
		}
		if !bytes.Equal(scattered[i], fill(i, n)) {
			t.Errorf("scatter: rank %d got wrong block back", i)
		}
	}
}

func TestAllGatherAllAlgorithms(t *testing.T) {
	const n = 700
	for _, alg := range Algorithms(OpAllGather) {
		for _, shape := range [][2]int{{2, 1}, {3, 1}, {2, 2}, {3, 2}} {
			w := newWorld(shape[0], shape[1], pushpull.PushPull)
			size := w.Size()
			out := make([][][]byte, size)
			w.Run(func(r *Rank) {
				out[r.ID()] = r.AllGather(fill(r.ID(), n), n, WithAlgorithm(alg))
			})
			for rank := 0; rank < size; rank++ {
				for i := 0; i < size; i++ {
					if !bytes.Equal(out[rank][i], fill(i, n)) {
						t.Errorf("%s %dx%d: rank %d block %d wrong", alg, shape[0], shape[1], rank, i)
					}
				}
			}
		}
	}
}

func TestAllToAllTransposes(t *testing.T) {
	const n = 256
	w := newWorld(3, 1, pushpull.PushPull)
	size := w.Size()
	block := func(from, to int) []byte { return fill(from*size+to, n) }
	out := make([][][]byte, size)
	w.Run(func(r *Rank) {
		blocks := make([][]byte, size)
		for to := 0; to < size; to++ {
			blocks[to] = block(r.ID(), to)
		}
		out[r.ID()] = r.AllToAll(blocks, n)
	})
	for rank := 0; rank < size; rank++ {
		for from := 0; from < size; from++ {
			if !bytes.Equal(out[rank][from], block(from, rank)) {
				t.Errorf("rank %d: block from %d wrong", rank, from)
			}
		}
	}
}

// Collectives run unchanged on every messaging mode, including the
// synchronous three-phase baseline (nonblocking sends inside each round
// are what keep the schedules deadlock-free).
func TestCollectivesAcrossModes(t *testing.T) {
	for _, mode := range []pushpull.Mode{pushpull.PushPull, pushpull.PushZero, pushpull.PushAll, pushpull.ThreePhase} {
		for _, alg := range Algorithms(OpAllReduce) {
			w := newWorld(2, 2, mode)
			size := w.Size()
			out := make([][]byte, size)
			w.Run(func(r *Rank) {
				r.Barrier()
				vals := []int64{int64(r.ID()), 7}
				out[r.ID()] = r.AllReduce(FromInt64s(vals), SumInt64, WithAlgorithm(alg))
				r.Barrier(WithAlgorithm(Tree))
			})
			want := int64(size * (size - 1) / 2)
			for rank := 0; rank < size; rank++ {
				got := Int64s(out[rank])
				if got[0] != want || got[1] != int64(7*size) {
					t.Errorf("mode %v alg %s rank %d: allreduce = %v", mode, alg, rank, got)
				}
			}
		}
	}
}

// Property: XOR-allreduce of arbitrary contributions equals the XOR of
// them all, on every rank, for arbitrary world shapes and every
// algorithm.
func TestAllReduceXorProperty(t *testing.T) {
	algs := Algorithms(OpAllReduce)
	f := func(nodes, procs uint8, vecLen uint8, seed byte, algPick uint8) bool {
		nn := int(nodes)%3 + 1 // 1..3 nodes
		pp := int(procs)%2 + 1 // 1..2 procs
		if nn == 1 && pp == 1 {
			pp = 2
		}
		n := (int(vecLen)%32 + 1) * 8
		alg := algs[int(algPick)%len(algs)]
		w := newWorld(nn, pp, pushpull.PushPull)
		size := w.Size()
		want := make([]byte, n)
		inputs := make([][]byte, size)
		for rank := 0; rank < size; rank++ {
			inputs[rank] = fill(rank+int(seed), n)
			want = XorBytes(want, inputs[rank])
		}
		out := make([][]byte, size)
		w.Run(func(r *Rank) {
			out[r.ID()] = r.AllReduce(inputs[r.ID()], XorBytes, WithAlgorithm(alg))
		})
		for rank := 0; rank < size; rank++ {
			if !bytes.Equal(out[rank], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBcastRootValidation(t *testing.T) {
	w := newWorld(2, 1, pushpull.PushPull)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range root did not panic")
		}
	}()
	w.Run(func(r *Rank) {
		r.Bcast(99, nil, 8)
	})
}

func TestInvalidAlgorithmPanics(t *testing.T) {
	w := newWorld(2, 1, pushpull.PushPull)
	defer func() {
		if recover() == nil {
			t.Error("dissemination bcast did not panic")
		}
	}()
	w.Run(func(r *Rank) {
		r.Bcast(0, fill(0, 8), 8, WithAlgorithm(Dissemination))
	})
}

// A world-level Config selects the algorithm for every call; WithAlgorithm
// still overrides per call.
func TestWorldConfigSelectsAlgorithm(t *testing.T) {
	if err := (Config{Bcast: Dissemination}).Validate(); err == nil {
		t.Error("Config.Validate accepted a dissemination bcast")
	}
	cfg := Config{AllReduce: Ring, Barrier: Tree}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	w := newWorld(3, 1, pushpull.PushPull, WithConfig(cfg))
	size := w.Size()
	out := make([][]byte, size)
	override := make([][]byte, size)
	w.Run(func(r *Rank) {
		r.Barrier() // tree via config
		data := FromInt64s([]int64{int64(r.ID())})
		out[r.ID()] = r.AllReduce(data, SumInt64)
		override[r.ID()] = r.AllReduce(data, SumInt64, WithAlgorithm(RecursiveDoubling))
	})
	want := int64(size * (size - 1) / 2)
	for rank := 0; rank < size; rank++ {
		if got := Int64s(out[rank])[0]; got != want {
			t.Errorf("config ring: rank %d = %d, want %d", rank, got, want)
		}
		if got := Int64s(override[rank])[0]; got != want {
			t.Errorf("override RD: rank %d = %d, want %d", rank, got, want)
		}
	}
}

// mulAdd31 is deliberately NON-commutative and NON-associative
// (elementwise x*31 + y): the probe for combination-order semantics.
func mulAdd31(a, b []byte) []byte {
	return zipInt64(a, b, func(x, y int64) int64 { return x*31 + y })
}

// The documented Op contract: tree/recursive-doubling reorder
// combinations, so a non-commutative op diverges across algorithms —
// and the Ring algorithm is the pinned ordered semantics, always the
// left fold in rank order.
func TestReduceNonCommutativeOpDiverges(t *testing.T) {
	const size = 4
	run := func(alg Algorithm) []int64 {
		w := newWorld(size, 1, pushpull.PushPull)
		var res []byte
		w.Run(func(r *Rank) {
			if out := r.Reduce(0, FromInt64s([]int64{int64(r.ID() + 1)}), mulAdd31, WithAlgorithm(alg)); r.ID() == 0 {
				res = out
			}
		})
		return Int64s(res)
	}
	// Left fold op(...op(op(d0,d1),d2)...) of 1,2,3,4.
	fold := int64(1)
	for d := int64(2); d <= size; d++ {
		fold = fold*31 + d
	}
	if got := run(Ring)[0]; got != fold {
		t.Errorf("ring reduce = %d, want the rank-order left fold %d", got, fold)
	}
	if got := run(Binomial)[0]; got == fold {
		t.Errorf("binomial reduce = %d: expected the tree's reordered combination to diverge from the left fold", got)
	}

	// AllReduce: ring agrees with the fold on every rank; tree does not.
	runAll := func(alg Algorithm) []int64 {
		w := newWorld(size, 1, pushpull.PushPull)
		out := make([]int64, size)
		w.Run(func(r *Rank) {
			out[r.ID()] = Int64s(r.AllReduce(FromInt64s([]int64{int64(r.ID() + 1)}), mulAdd31, WithAlgorithm(alg)))[0]
		})
		return out
	}
	for rank, got := range runAll(Ring) {
		if got != fold {
			t.Errorf("ring allreduce rank %d = %d, want %d", rank, got, fold)
		}
	}
	if got := runAll(Tree); got[0] == fold {
		t.Errorf("tree allreduce = %d: expected divergence from the left fold", got[0])
	}
}

// Non-blocking collectives: a Test immediately after starting cannot
// have completed (no virtual time has passed), compute overlaps the
// collective, and the result is exact.
func TestNonBlockingAllReduceOverlapsCompute(t *testing.T) {
	const elems = 1024
	run := func(overlap bool) ([]int64, sim.Time) {
		w := newWorld(4, 1, pushpull.PushPull)
		size := w.Size()
		out := make([][]byte, size)
		var end sim.Time
		w.Run(func(r *Rank) {
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64((r.ID() + 1) * (i + 1))
			}
			r.Barrier()
			if overlap {
				req := r.IAllReduce(FromInt64s(vals), SumInt64)
				if done, _, _ := req.Test(); done {
					t.Errorf("rank %d: IAllReduce completed with no virtual time elapsed", r.ID())
				}
				r.Compute(2_000_000)
				res, err := req.Wait()
				if err != nil {
					t.Errorf("rank %d: %v", r.ID(), err)
				}
				out[r.ID()] = res
				// Completing again returns the same outcome.
				if again, _ := req.Wait(); &again[0] != &res[0] {
					t.Errorf("rank %d: second Wait returned a different result", r.ID())
				}
			} else {
				r.Compute(2_000_000)
				out[r.ID()] = r.AllReduce(FromInt64s(vals), SumInt64)
			}
			r.Barrier()
			if r.ID() == 0 {
				end = r.Thread().Now()
			}
		})
		sums := make([]int64, size)
		for rank := 0; rank < size; rank++ {
			sums[rank] = Int64s(out[rank])[0]
		}
		return sums, end
	}
	seq, seqEnd := run(false)
	ovl, ovlEnd := run(true)
	var want int64
	for rank := 1; rank <= 4; rank++ {
		want += int64(rank)
	}
	for rank := 0; rank < 4; rank++ {
		if seq[rank] != want || ovl[rank] != want {
			t.Errorf("rank %d: blocking %d / overlapped %d, want %d", rank, seq[rank], ovl[rank], want)
		}
	}
	if ovlEnd >= seqEnd {
		t.Errorf("overlapped run finished at %v, not before the sequential run's %v — no compute/collective overlap", ovlEnd, seqEnd)
	}
}

// Collective rounds travel on ReservedTag, so application
// point-to-point traffic (tag 0) interleaved with an in-flight
// non-blocking collective on the same channels can never cross-match:
// both the app messages and the reduction must come out byte-exact.
func TestNonBlockingCollectiveDoesNotCrossMatchAppTraffic(t *testing.T) {
	const n = 1200
	w := newWorld(2, 1, pushpull.PushPull)
	size := w.Size()
	appGot := make([][]byte, size)
	sums := make([][]byte, size)
	w.Run(func(r *Rank) {
		peer := (r.ID() + 1) % size
		req := r.IAllReduce(FromInt64s([]int64{int64(r.ID() + 1)}), SumInt64)
		// Untagged app exchange while the collective is in flight.
		r.Send(peer, fill(100+r.ID(), n))
		appGot[r.ID()] = r.Recv(peer, n)
		res, err := req.Wait()
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		sums[r.ID()] = res
	})
	for rank := 0; rank < size; rank++ {
		if !bytes.Equal(appGot[rank], fill(100+(rank+1)%size, n)) {
			t.Errorf("rank %d: app message cross-matched collective traffic", rank)
		}
		if got := Int64s(sums[rank])[0]; got != 3 {
			t.Errorf("rank %d: allreduce = %d, want 3 (collective folded app bytes?)", rank, got)
		}
	}
}

// Several non-blocking collectives may be outstanding at once: each
// gets its own tag lane (ReservedTag + start sequence), so rounds of
// different collectives can never cross-match even when ranks progress
// and complete them at divergent times.
func TestConcurrentOutstandingCollectives(t *testing.T) {
	w := newWorld(4, 1, pushpull.PushPull)
	size := w.Size()
	sums := make([][]byte, size)
	gathers := make([][]byte, size)
	w.Run(func(r *Rank) {
		bar := r.IBarrier()
		ar := r.IAllReduce(FromInt64s([]int64{int64(r.ID() + 1)}), SumInt64)
		ag := r.IAllGather(FromInt64s([]int64{int64(r.ID())}), 8)
		// Rank-skewed compute staggers when each rank progresses what.
		r.Compute(int64(r.ID()+1) * 50_000)
		// Complete in an order unrelated to the start order.
		var err error
		if gathers[r.ID()], err = ag.Wait(); err != nil {
			t.Errorf("rank %d allgather: %v", r.ID(), err)
		}
		if sums[r.ID()], err = ar.Wait(); err != nil {
			t.Errorf("rank %d allreduce: %v", r.ID(), err)
		}
		if err := WaitAll(bar); err != nil {
			t.Errorf("rank %d barrier: %v", r.ID(), err)
		}
	})
	for rank := 0; rank < size; rank++ {
		if got := Int64s(sums[rank])[0]; got != 10 {
			t.Errorf("rank %d: allreduce = %d, want 10 (cross-matched another collective?)", rank, got)
		}
		for i, v := range Int64s(gathers[rank]) {
			if v != int64(i) {
				t.Errorf("rank %d: allgather block %d = %d, want %d", rank, i, v, i)
			}
		}
	}
}

// A multi-round IBarrier completes under a rank that only polls: the
// progression tasklet posts each round, and Test observes completion.
func TestIBarrierCompletesByPolling(t *testing.T) {
	w := newWorld(4, 2, pushpull.PushPull)
	size := w.Size()
	done := make([]bool, size)
	w.Run(func(r *Rank) {
		req := r.IBarrier()
		for i := 0; i < 100_000; i++ {
			if ok, _, err := req.Test(); ok {
				if err != nil {
					t.Errorf("rank %d: %v", r.ID(), err)
				}
				done[r.ID()] = true
				return
			}
			r.Compute(1000) // let virtual time pass between polls
		}
	})
	for rank, ok := range done {
		if !ok {
			t.Errorf("rank %d: IBarrier never completed under polling", rank)
		}
	}
}

// IBcast and IReduce round-trip through their Request results.
func TestNonBlockingBcastReduce(t *testing.T) {
	const n = 2000
	w := newWorld(3, 1, pushpull.PushPull)
	size := w.Size()
	got := make([][]byte, size)
	var reduced []byte
	payload := fill(9, n)
	w.Run(func(r *Rank) {
		var data []byte
		if r.ID() == 0 {
			data = payload
		}
		breq := r.IBcast(0, data, n)
		b, err := breq.Wait()
		if err != nil {
			t.Errorf("rank %d bcast: %v", r.ID(), err)
		}
		got[r.ID()] = b
		rreq := r.IReduce(1, FromInt64s([]int64{int64(r.ID() + 10)}), SumInt64)
		res, err := rreq.Wait()
		if err != nil {
			t.Errorf("rank %d reduce: %v", r.ID(), err)
		}
		if r.ID() == 1 {
			reduced = res
		}
	})
	for rank := 0; rank < size; rank++ {
		if !bytes.Equal(got[rank], payload) {
			t.Errorf("rank %d received wrong bcast data", rank)
		}
	}
	if got := Int64s(reduced)[0]; got != 10+11+12 {
		t.Errorf("reduce = %d, want 33", got)
	}
}

// The AnyTag cross-match fix, pinned end to end: a wildcard receive
// posted while a non-blocking collective is in flight must wait for the
// application message — on the old matcher it swallowed the
// collective's next round instead, deadlocking the reduction (which is
// why this runs under a virtual-time budget: the old behavior fails the
// budget, not the whole test binary).
func TestAnyTagDoesNotSwallowCollectiveRounds(t *testing.T) {
	const n = 900
	const appTag = 3
	w := newWorld(2, 1, pushpull.PushPull)
	size := w.Size()
	appGot := make([][]byte, size)
	sts := make([]comm.Status, size)
	sums := make([][]byte, size)
	w.Launch(func(r *Rank) {
		peer := (r.ID() + 1) % size
		req := r.IAllReduce(FromInt64s([]int64{int64(r.ID() + 1)}), SumInt64)
		// Wildcard posted mid-collective: rounds of req are still being
		// posted and arriving while this receive is pending.
		wild := r.Irecv(peer, n, comm.WithTag(comm.AnyTag))
		res, err := req.Wait()
		if err != nil {
			t.Errorf("rank %d allreduce: %v", r.ID(), err)
		}
		sums[r.ID()] = res
		r.Send(peer, fill(40+r.ID(), n), comm.WithTag(appTag))
		data, err := wild.Wait(r.Thread())
		if err != nil {
			t.Errorf("rank %d wildcard: %v", r.ID(), err)
			return
		}
		appGot[r.ID()] = data
		sts[r.ID()] = wild.Status()
	})
	if _, err := w.Cluster().RunWithin(200 * sim.Millisecond); err != nil {
		t.Fatalf("run stalled — AnyTag receive swallowed a collective round: %v", err)
	}
	for rank := 0; rank < size; rank++ {
		if got := Int64s(sums[rank])[0]; got != 3 {
			t.Errorf("rank %d: allreduce = %d, want 3", rank, got)
		}
		if !bytes.Equal(appGot[rank], fill(40+(rank+1)%size, n)) {
			t.Errorf("rank %d: wildcard bound the wrong message", rank)
		}
		if st := sts[rank]; !st.Valid || st.Tag != appTag {
			t.Errorf("rank %d: wildcard status = %+v, want valid tag %d", rank, st, appTag)
		}
	}
}

// rs-ag correctness across shapes, including sizes where blocks are
// uneven and (with procs > 1) ranks sharing nodes.
func TestAllReduceRSAGShapes(t *testing.T) {
	for _, shape := range [][2]int{{2, 1}, {3, 1}, {5, 1}, {3, 2}, {4, 2}} {
		for _, elems := range []int{1, 5, 64, 1000} {
			w := newWorld(shape[0], shape[1], pushpull.PushPull)
			size := w.Size()
			out := make([][]byte, size)
			w.Run(func(r *Rank) {
				vals := make([]int64, elems)
				for i := range vals {
					vals[i] = int64((r.ID() + 2) * (i + 1))
				}
				out[r.ID()] = r.AllReduce(FromInt64s(vals), SumInt64, WithAlgorithm(RSAG))
			})
			for rank := 0; rank < size; rank++ {
				got := Int64s(out[rank])
				for i := 0; i < elems; i++ {
					var want int64
					for rr := 0; rr < size; rr++ {
						want += int64((rr + 2) * (i + 1))
					}
					if got[i] != want {
						t.Fatalf("%dx%d elems %d: rank %d elem %d = %d, want %d",
							shape[0], shape[1], elems, rank, i, got[i], want)
					}
				}
			}
		}
	}
}

// rs-ag's block-reduction order, pinned: block b folds contributions in
// rank order starting at rank b (the cyclic left fold), so only block 0
// matches the ordered ring's global left fold and the other blocks are
// rotations of it.
func TestAllReduceRSAGBlockOrderPinned(t *testing.T) {
	const size = 4
	w := newWorld(size, 1, pushpull.PushPull)
	out := make([][]byte, size)
	w.Run(func(r *Rank) {
		// One int64 element per block; every element of rank r's vector
		// is r+1, so element b records exactly block b's fold order.
		vals := make([]int64, size)
		for i := range vals {
			vals[i] = int64(r.ID() + 1)
		}
		out[r.ID()] = r.AllReduce(FromInt64s(vals), mulAdd31, WithAlgorithm(RSAG))
	})
	fold := func(start int) int64 {
		acc := int64(start + 1)
		for s := 1; s < size; s++ {
			acc = acc*31 + int64((start+s)%size+1)
		}
		return acc
	}
	for rank := 0; rank < size; rank++ {
		got := Int64s(out[rank])
		for b := 0; b < size; b++ {
			if got[b] != fold(b) {
				t.Errorf("rank %d block %d = %d, want the cyclic fold from rank %d = %d",
					rank, b, got[b], b, fold(b))
			}
		}
		if got[1] == fold(0) {
			t.Errorf("block 1 matches block 0's order — rotation lost, the pin is meaningless")
		}
	}
}

// The segmented ring must produce byte-identical results for any
// segment size — segments that do not divide the vector, a segment
// larger than the whole vector — from any root.
func TestBcastRingSegmentedSegmentSizes(t *testing.T) {
	const n = 10_000
	for _, seg := range []int{512, 1000, 4096, 16384} {
		for _, root := range []int{0, 2, 5} {
			w := newWorld(3, 2, pushpull.PushPull)
			payload := fill(root, n)
			got := make([][]byte, w.Size())
			w.Run(func(r *Rank) {
				var data []byte
				if r.ID() == root {
					data = payload
				}
				got[r.ID()] = r.Bcast(root, data, n,
					WithAlgorithm(RingSegmented), WithSegment(seg))
			})
			for rank := range got {
				if !bytes.Equal(got[rank], payload) {
					t.Errorf("seg %d root %d: rank %d received wrong bytes", seg, root, rank)
				}
			}
		}
	}
	// The world-level Config supplies the segment when the call does not.
	w := newWorld(3, 1, pushpull.PushPull, WithConfig(Config{Bcast: RingSegmented, SegmentBytes: 700}))
	payload := fill(1, n)
	got := make([][]byte, w.Size())
	w.Run(func(r *Rank) {
		var data []byte
		if r.ID() == 1 {
			data = payload
		}
		got[r.ID()] = r.Bcast(1, data, n)
	})
	for rank := range got {
		if !bytes.Equal(got[rank], payload) {
			t.Errorf("config segment: rank %d received wrong bytes", rank)
		}
	}
}

// The point of segmentation: on a long vector through a multi-hop
// chain, the pipelined ring completes in less virtual time than the
// store-and-forward ring, because interior links carry segment k-1
// while segment k is still arriving.
func TestBcastSegmentedPipelinesFasterThanRing(t *testing.T) {
	const n = 64 << 10
	run := func(opts ...Opt) sim.Time {
		w := newWorld(8, 1, pushpull.PushPull)
		var bad bool
		end := w.Run(func(r *Rank) {
			var data []byte
			if r.ID() == 0 {
				data = fill(1, n)
			}
			if !bytes.Equal(r.Bcast(0, data, n, opts...), fill(1, n)) {
				bad = true
			}
		})
		if bad {
			t.Fatal("broadcast corrupted")
		}
		return end
	}
	ring := run(WithAlgorithm(Ring))
	seg := run(WithAlgorithm(RingSegmented), WithSegment(8192))
	if seg >= ring {
		t.Errorf("segmented ring took %v, store-and-forward ring %v — no pipelining win", seg, ring)
	}
}

// Test must not allocate while the collective is in flight: it is
// the polling point inside application compute loops.
func TestRequestTestDoesNotAllocateWhilePending(t *testing.T) {
	w := newWorld(2, 1, pushpull.PushPull)
	allocs := -1.0
	w.Run(func(r *Rank) {
		req := r.IAllReduce(FromInt64s(make([]int64, 256)), SumInt64)
		if r.ID() == 0 {
			if done, _, _ := req.Test(); done {
				t.Error("IAllReduce completed with no virtual time elapsed")
			}
			allocs = testing.AllocsPerRun(100, func() { req.Test() })
		}
		if _, err := req.Wait(); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if allocs != 0 {
		t.Errorf("Test allocated %.1f objects per pending poll, want 0", allocs)
	}
}

// TestProgressionAdvancesWithoutPolling is the sharp assertion behind
// retiring the software-progression caveat: a MULTI-round nonblocking
// collective must fully complete under a long pure-compute phase the
// rank never interrupts with Test. Only the world's progression tasklet
// can have posted rounds 2..n, because nobody else ran collective code.
func TestProgressionAdvancesWithoutPolling(t *testing.T) {
	w := newWorld(4, 1, pushpull.PushPull)
	size := w.Size()
	out := make([][]byte, size)
	w.Run(func(r *Rank) {
		contrib := fill(r.ID(), 256)
		// Ring allgather: size-1 sequenced rounds, each depending on the
		// previous round's received block.
		req := r.IAllGather(contrib, 256, WithAlgorithm(Ring))
		if done, _, _ := req.Test(); done {
			t.Errorf("rank %d: allgather done with no virtual time elapsed", r.ID())
		}
		// ~50 ms of virtual compute — orders of magnitude longer than the
		// collective — with no Test calls at all.
		r.Compute(10_000_000)
		done, res, err := req.Test()
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if !done {
			t.Errorf("rank %d: collective still in flight after 50 ms of compute — progression is not advancing rounds", r.ID())
			res, err = req.Wait() // complete anyway to check data
			if err != nil {
				t.Errorf("rank %d: %v", r.ID(), err)
				return
			}
		}
		out[r.ID()] = res
	})
	for rank := 0; rank < size; rank++ {
		for from := 0; from < size; from++ {
			want := fill(from, 256)
			if !bytes.Equal(out[rank][from*256:(from+1)*256], want) {
				t.Fatalf("rank %d: block %d corrupted", rank, from)
			}
		}
	}
}

// TestProgressionSeveralOutstanding: two nonblocking collectives in
// flight at once, both driven by the one progression tasklet, complete
// independently and correctly.
func TestProgressionSeveralOutstanding(t *testing.T) {
	w := newWorld(4, 1, pushpull.PushPull)
	size := w.Size()
	sums := make([]int64, size)
	gathers := make([][]byte, size)
	w.Run(func(r *Rank) {
		a := r.IAllReduce(FromInt64s([]int64{int64(r.ID() + 1)}), SumInt64)
		b := r.IAllGather(fill(r.ID(), 64), 64, WithAlgorithm(Ring))
		r.Compute(10_000_000)
		res, err := a.Wait()
		if err != nil {
			t.Errorf("rank %d allreduce: %v", r.ID(), err)
			return
		}
		sums[r.ID()] = Int64s(res)[0]
		cat, err := b.Wait()
		if err != nil {
			t.Errorf("rank %d allgather: %v", r.ID(), err)
			return
		}
		gathers[r.ID()] = cat
	})
	for rank := 0; rank < size; rank++ {
		if sums[rank] != 10 {
			t.Errorf("rank %d: sum %d, want 10", rank, sums[rank])
		}
		for from := 0; from < size; from++ {
			if !bytes.Equal(gathers[rank][from*64:(from+1)*64], fill(from, 64)) {
				t.Errorf("rank %d: gather block %d corrupted", rank, from)
			}
		}
	}
}
