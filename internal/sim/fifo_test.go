package sim

import (
	"slices"
	"testing"
)

// fifoOp is one step of a FIFO script: push n values (numbered on from
// the last push), or pop n and check they come out in push order.
type fifoOp struct {
	push, pop int
}

// TestFIFOOrderAcrossCompaction drives FIFOs through scripts that force
// the head index to wrap back to zero (drain), to compact (consumed
// front at least half the slice when an append would grow it), and to
// grow with a live head; every pop must see push order, and Len, Peek
// and At must agree with a reference slice after every step.
func TestFIFOOrderAcrossCompaction(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []fifoOp
	}{
		{"drain resets the head", []fifoOp{{push: 4}, {pop: 4}, {push: 4}, {pop: 2}, {push: 1}, {pop: 3}}},
		{"steady one in one out", []fifoOp{{push: 1}, {push: 1, pop: 1}, {push: 1, pop: 1}, {push: 1, pop: 1}, {push: 1, pop: 1}, {pop: 1}}},
		{"compacts a half-consumed slice", []fifoOp{{push: 8}, {pop: 5}, {push: 9}, {pop: 12}}},
		{"grows with a live head", []fifoOp{{push: 8}, {pop: 1}, {push: 20}, {pop: 27}}},
		{"window sliding many times", []fifoOp{{push: 3}, {push: 7, pop: 5}, {push: 7, pop: 5}, {push: 7, pop: 5}, {push: 7, pop: 5}, {pop: 11}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f FIFO[int]
			var ref []int
			next := 0
			check := func() {
				t.Helper()
				if f.Len() != len(ref) {
					t.Fatalf("Len() = %d, want %d", f.Len(), len(ref))
				}
				v, ok := f.Peek()
				if ok != (len(ref) > 0) || (ok && v != ref[0]) {
					t.Fatalf("Peek() = %d, %v; want head of %v", v, ok, ref)
				}
				for i := range ref {
					if *f.At(i) != ref[i] {
						t.Fatalf("At(%d) = %d, want %d", i, *f.At(i), ref[i])
					}
				}
			}
			for _, op := range tc.ops {
				for i := 0; i < op.push; i++ {
					f.Push(next)
					ref = append(ref, next)
					next++
				}
				check()
				for i := 0; i < op.pop; i++ {
					v, ok := f.Pop()
					if !ok || v != ref[0] {
						t.Fatalf("Pop() = %d, %v; want %d", v, ok, ref[0])
					}
					ref = ref[1:]
				}
				check()
			}
			if _, ok := f.Pop(); ok {
				t.Fatal("Pop on an emptied FIFO succeeded")
			}
		})
	}
}

// TestFIFOSteadyStateStopsReallocating: a FIFO whose length stays
// bounded reuses its backing array instead of regrowing on every push.
func TestFIFOSteadyStateStopsReallocating(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 4; i++ {
		f.Push(i)
	}
	step := func() {
		f.Push(0)
		f.Pop()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("steady-state push+pop allocates %v objects, want 0", got)
	}
}

// TestFIFODiscardDropsReferences: discarded slots are zeroed, so the
// FIFO pins no removed item.
func TestFIFODiscardDropsReferences(t *testing.T) {
	var f FIFO[*int]
	for i := 0; i < 4; i++ {
		v := i
		f.Push(&v)
	}
	f.Discard(3)
	for i := 0; i < 3; i++ {
		if f.items[i] != nil {
			t.Fatalf("slot %d still holds a discarded item", i)
		}
	}
	if *f.At(0) == nil || **f.At(0) != 3 {
		t.Fatal("Discard(3) lost the fourth item")
	}
}

// TestQueueAfterWrapAround: a bounded queue cycled past its capacity
// many times (the NIC and switch ring shape) keeps Len, Peek, TryGet and
// PollGet in FIFO order, and PollGet on the drained queue registers its
// waiter.
func TestQueueAfterWrapAround(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 4)
	var want []int
	next := 0
	for round := 0; round < 10; round++ {
		for q.TryPut(next) {
			want = append(want, next)
			next++
		}
		if q.Len() != 4 {
			t.Fatalf("round %d: Len() = %d after filling, want 4", round, q.Len())
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryGet()
			if !ok || v != want[0] {
				t.Fatalf("round %d: TryGet = %d, %v; want %d", round, v, ok, want[0])
			}
			want = want[1:]
		}
		if v, ok := q.Peek(); !ok || v != want[0] {
			t.Fatalf("round %d: Peek = %d, %v; want %d", round, v, ok, want[0])
		}
	}
	tk := e.NewTasklet("drain", func(*Tasklet) {})
	var got []int
	for {
		v, ok := q.PollGet(tk)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("PollGet drained %v, want %v", got, want)
	}
	if q.Len() != 0 || q.notEmpty.Waiting() != 1 {
		t.Fatalf("Len()=%d waiters=%d after draining, want 0 and 1", q.Len(), q.notEmpty.Waiting())
	}
	if q.Dropped() != 10 {
		t.Fatalf("Dropped() = %d, want one failed fill per round", q.Dropped())
	}
}
