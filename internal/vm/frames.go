package vm

import "fmt"

// FrameAllocator hands out physical page frames for one node. Frames are
// deliberately handed out in an interleaved order (low half / high half
// alternating), so virtually contiguous buffers are physically scattered —
// the common state of a machine whose page pool has been churned. This is
// what makes zero buffers genuinely multi-segment.
//
// The order is computed, not tabulated: a node models 256 MB but a run
// touches a few frames, so the allocator keeps only a cursor into the
// order and a stack of frames returned by Free.
type FrameAllocator struct {
	totalFrames uint64
	next        uint64   // fresh frames handed out so far: the cursor into the order
	freed       []uint64 // frames returned by Free, reused LIFO before the cursor advances
	allocated   map[uint64]bool
}

// NewFrameAllocator manages a physical memory of size bytes (rounded down
// to whole frames).
func NewFrameAllocator(size uint64) *FrameAllocator {
	return &FrameAllocator{
		totalFrames: size >> PageShift,
		allocated:   make(map[uint64]bool),
	}
}

// fresh returns the k-th frame of the interleaved order 0, half, 1,
// half+1, ..., where an odd frame count's last frame comes at the tail.
func (f *FrameAllocator) fresh(k uint64) uint64 {
	half := f.totalFrames / 2
	switch {
	case k >= 2*half:
		return k
	case k%2 == 0:
		return k / 2
	default:
		return half + k/2
	}
}

// TotalFrames reports the number of managed frames.
func (f *FrameAllocator) TotalFrames() uint64 { return f.totalFrames }

// FreeFrames reports the number of unallocated frames.
func (f *FrameAllocator) FreeFrames() uint64 {
	return f.totalFrames - f.next + uint64(len(f.freed))
}

// Alloc returns a free frame number. It panics when physical memory is
// exhausted: the simulated workloads are sized to fit, so exhaustion is a
// configuration bug.
func (f *FrameAllocator) Alloc() uint64 {
	var fr uint64
	switch n := len(f.freed); {
	case n > 0:
		fr = f.freed[n-1]
		f.freed = f.freed[:n-1]
	case f.next < f.totalFrames:
		fr = f.fresh(f.next)
		f.next++
	default:
		panic("vm: out of physical frames")
	}
	f.allocated[fr] = true
	return fr
}

// Free returns a frame to the pool.
func (f *FrameAllocator) Free(frame uint64) {
	if !f.allocated[frame] {
		panic(fmt.Sprintf("vm: freeing unallocated frame %d", frame))
	}
	delete(f.allocated, frame)
	f.freed = append(f.freed, frame)
}

// Allocated reports whether a frame is currently allocated.
func (f *FrameAllocator) Allocated(frame uint64) bool { return f.allocated[frame] }
