package coll

import (
	"testing"

	"pushpull/internal/pushpull"
)

// warmAllReduceHandoffs is the pinned number of goroutine switches over
// ten warm 32 KiB rs-ag allreduces on 8 ranks, one per switched node
// (the allreduce-8node benchmark's shape). Every send and receive of a
// round runs on a pooled helper task, inline in whichever goroutine holds
// control; what is left is the rank threads' own resumes as they wait
// out each round. Consecutive operations alternate between 444 and 452
// switches, so ten make an exact 448 per operation.
const warmAllReduceHandoffs = 4480

// TestWarmAllReduceHandoffs pins the switches of ten warm allreduces,
// read from Engine.Handoffs on rank 0 after each one.
func TestWarmAllReduceHandoffs(t *testing.T) {
	w := newWorld(8, 1, pushpull.PushPull)
	e := w.Cluster().Engine
	vec := FromInt64s(make([]int64, 4096))
	var after []uint64
	w.Run(func(r *Rank) {
		for i := 0; i < 12; i++ {
			r.AllReduce(vec, SumInt64, WithAlgorithm(RSAG))
			if r.ID() == 0 {
				after = append(after, e.Handoffs())
			}
		}
	})
	// The first two operations warm the carriers, pools and sessions.
	if got := after[11] - after[1]; got != warmAllReduceHandoffs {
		t.Fatalf("ten warm rs-ag allreduces took %d goroutine switches, want %d", got, warmAllReduceHandoffs)
	}
}
