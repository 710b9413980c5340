package coll

import (
	"fmt"
	"testing"

	"pushpull/internal/pushpull"
)

// mixedSchedule runs the pinned mixed nonblocking/blocking program on a
// nodes×procs world and returns every rank's virtual time (ns) after
// each phase: nonblocking starts, compute, more starts, the waits, a
// blocking AllReduce and a blocking Barrier.
func mixedSchedule(t *testing.T, nodes, procs int) [][]int64 {
	w := newWorld(nodes, procs, pushpull.PushPull)
	size := w.Size()
	times := make([][]int64, size)
	w.Run(func(r *Rank) {
		id := r.ID()
		mark := func() { times[id] = append(times[id], int64(r.Thread().Now())) }
		vec := make([]int64, 512)
		for i := range vec {
			vec[i] = int64(id*1000 + i)
		}
		ar := r.IAllReduce(FromInt64s(vec), SumInt64, WithAlgorithm(RSAG))
		bar := r.IBarrier()
		mark()
		r.Compute(int64(id+1) * 40_000)
		mark()
		var data []byte
		if id == 0 {
			data = fill(0, 6000)
		}
		bc := r.IBcast(0, data, 6000, WithAlgorithm(RingSegmented), WithSegment(1500))
		ag := r.IAllGather(fill(id, 256), 256)
		rd := r.IReduce(size-1, FromInt64s(vec[:64]), SumInt64)
		mark()
		if err := WaitAll(ar, bar, bc, ag, rd); err != nil {
			t.Errorf("rank %d: %v", id, err)
		}
		mark()
		r.AllReduce(FromInt64s(vec[:32]), MaxInt64)
		mark()
		r.Barrier()
		mark()
	})
	return times
}

// TestNonblockingSchedulePinned pins the event schedule of the
// nonblocking collectives, which no builtin scenario exercises: the
// progression tasklet's posting order and costs decide every rank's
// completion times, so any change to how rounds are driven shows here
// as a moved timestamp.
func TestNonblockingSchedulePinned(t *testing.T) {
	want := map[[2]int][][]int64{
		{4, 1}: {
			{1000, 201000, 202750, 2128208, 2736349, 2959585},
			{1000, 401000, 402000, 2219574, 2836468, 2967009},
			{1000, 601000, 602000, 2344231, 2820273, 2998171},
			{1000, 801000, 802750, 2560536, 2898247, 2913479},
		},
		{4, 2}: {
			{1000, 201000, 202750, 1853444, 3006970, 3252878},
			{1000, 401000, 402000, 1846963, 3017707, 3267806},
			{1000, 601000, 602000, 2024466, 3114534, 3298968},
			{1000, 801000, 802000, 2016347, 3123916, 3260190},
			{1000, 1001000, 1002000, 2528413, 3090894, 3306392},
			{1000, 1201000, 1202000, 2550065, 3099286, 3321432},
			{1000, 1401000, 1402000, 2804567, 3174298, 3337554},
			{1000, 1601000, 1602750, 2816345, 3183680, 3208713},
		},
		{3, 1}: {
			{1000, 201000, 202750, 1609856, 2137890, 2299251},
			{1000, 401000, 402000, 1795050, 2238009, 2337933},
			{1000, 601000, 602750, 2046001, 2213849, 2306771},
		},
		{1, 1}: {
			{0, 200000, 200000, 200000, 200000, 200000},
		},
	}
	for _, shape := range [][2]int{{4, 1}, {4, 2}, {3, 1}, {1, 1}} {
		got := mixedSchedule(t, shape[0], shape[1])
		for rank, ts := range want[shape] {
			if fmt.Sprint(got[rank]) != fmt.Sprint(ts) {
				t.Errorf("%dx%d rank %d: phase times %v, want %v", shape[0], shape[1], rank, got[rank], ts)
			}
		}
	}
}
