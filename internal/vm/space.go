package vm

import (
	"fmt"

	"pushpull/internal/sim"
)

// FrameAllocator is one node's budget of physical page frames. The
// address spaces on the node draw the pages they map from it; which
// frames back a page is not modelled.
type FrameAllocator struct {
	free uint64 // frames not yet drawn
}

// NewFrameAllocator manages a physical memory of size bytes (rounded down
// to whole frames).
func NewFrameAllocator(size uint64) *FrameAllocator {
	return &FrameAllocator{free: size >> PageShift}
}

// take draws n frames. It panics when physical memory is exhausted: the
// simulated workloads are sized to fit, so exhaustion is a configuration
// bug.
func (f *FrameAllocator) take(n uint64) {
	if n > f.free {
		panic("vm: out of physical frames")
	}
	f.free -= n
}

// userBase is where every address space's first buffer starts (an
// arbitrary user-space address).
const userBase VirtAddr = 1 << 30

// AddressSpace is one protected user address space with a bump allocator
// for buffers. Buffers are page-aligned, as in the paper's benchmarks
// ("source and destination buffers were page-aligned for steady
// performance"), and never freed, so the mapped pages are the one
// contiguous range [userBase, next).
type AddressSpace struct {
	name   string
	frames *FrameAllocator
	next   VirtAddr
	cost   CostModel
}

// NewAddressSpace creates an empty address space drawing frames from fa.
func NewAddressSpace(name string, fa *FrameAllocator, cost CostModel) *AddressSpace {
	return &AddressSpace{name: name, frames: fa, next: userBase, cost: cost}
}

// Alloc reserves n bytes of page-aligned virtual memory, mapping its
// frames immediately (the benchmarks touch their buffers before timing,
// so there are no faults on the measured path).
func (s *AddressSpace) Alloc(n int) VirtAddr {
	if n <= 0 {
		panic("vm: Alloc of non-positive size")
	}
	pages := uint64(n+PageSize-1) >> PageShift
	s.frames.take(pages)
	base := s.next
	s.next += VirtAddr(pages << PageShift)
	return base
}

// Check reports whether [addr, addr+n) is mapped: the error names the
// first unmapped address the range touches.
func (s *AddressSpace) Check(addr VirtAddr, n int) error {
	switch {
	case n <= 0:
		return fmt.Errorf("vm: translate of non-positive length %d", n)
	case addr < userBase || addr >= s.next:
		return fmt.Errorf("vm: %s: page fault at %#x", s.name, addr)
	case uint64(n) > uint64(s.next-addr):
		return fmt.Errorf("vm: %s: page fault at %#x", s.name, s.next)
	}
	return nil
}

// TranslateCost reports the virtual time that resolving the physical
// pages of [addr, addr+n) costs. Callers charge it to whichever thread
// performs the walk, which is exactly what Address Translation Overhead
// Masking manipulates.
func (s *AddressSpace) TranslateCost(addr VirtAddr, n int) sim.Duration {
	return s.cost.Cost(addr, n)
}
