package vm

import (
	"fmt"

	"pushpull/internal/sim"
)

// AddressSpace is one protected user address space: a page table mapping
// virtual pages to physical frames, plus a simple bump allocator for
// buffers. Buffers are page-aligned, as in the paper's benchmarks ("source
// and destination buffers were page-aligned for steady performance").
type AddressSpace struct {
	name   string
	frames *FrameAllocator
	pt     map[uint64]uint64 // vpn -> pfn
	pinned map[uint64]int    // vpn -> pin count
	next   VirtAddr
	cost   CostModel
}

// NewAddressSpace creates an empty address space drawing frames from fa.
func NewAddressSpace(name string, fa *FrameAllocator, cost CostModel) *AddressSpace {
	return &AddressSpace{
		name:   name,
		frames: fa,
		pt:     make(map[uint64]uint64),
		pinned: make(map[uint64]int),
		next:   VirtAddr(1 << 30), // arbitrary user-space base
		cost:   cost,
	}
}

// Name reports the space's name (for traces).
func (s *AddressSpace) Name() string { return s.name }

// CostModel returns the translation cost model in force.
func (s *AddressSpace) CostModel() CostModel { return s.cost }

// Alloc reserves n bytes of page-aligned virtual memory, faulting in
// physical frames immediately (the benchmarks touch their buffers before
// timing, so there are no faults on the measured path).
func (s *AddressSpace) Alloc(n int) VirtAddr {
	if n <= 0 {
		panic("vm: Alloc of non-positive size")
	}
	base := s.next
	pages := (n + PageSize - 1) / PageSize
	for i := 0; i < pages; i++ {
		vpn := base.PageOf() + uint64(i)
		s.pt[vpn] = s.frames.Alloc()
	}
	s.next = base + VirtAddr(pages*PageSize)
	return base
}

// Free releases the pages backing [addr, addr+n). The range must have been
// returned by Alloc and must not be pinned.
func (s *AddressSpace) Free(addr VirtAddr, n int) {
	pages := PagesSpanned(addr, n)
	for i := 0; i < pages; i++ {
		vpn := addr.PageOf() + uint64(i)
		if s.pinned[vpn] > 0 {
			panic(fmt.Sprintf("vm: freeing pinned page %d in %s", vpn, s.name))
		}
		pfn, ok := s.pt[vpn]
		if !ok {
			panic(fmt.Sprintf("vm: freeing unmapped page %d in %s", vpn, s.name))
		}
		s.frames.Free(pfn)
		delete(s.pt, vpn)
	}
}

// Translate resolves [addr, addr+n) to its physical scatter list — the
// cross-space zero buffer. Adjacent physical pages are coalesced when they
// happen to be contiguous. The time this takes on the simulated machine is
// TranslateCost; callers charge it to whichever thread performs the walk,
// which is exactly what Address Translation Overhead Masking manipulates.
func (s *AddressSpace) Translate(addr VirtAddr, n int) (ZeroBuffer, error) {
	if n <= 0 {
		return ZeroBuffer{}, fmt.Errorf("vm: translate of non-positive length %d", n)
	}
	var z ZeroBuffer
	remaining := n
	cur := addr
	for remaining > 0 {
		vpn := cur.PageOf()
		pfn, ok := s.pt[vpn]
		if !ok {
			return ZeroBuffer{}, fmt.Errorf("vm: %s: page fault at %#x", s.name, cur)
		}
		off := cur.Offset()
		take := PageSize - off
		if take > remaining {
			take = remaining
		}
		pa := PhysAddr(pfn<<PageShift) + PhysAddr(off)
		if k := len(z.Segs); k > 0 && z.Segs[k-1].Addr+PhysAddr(z.Segs[k-1].Len) == pa {
			z.Segs[k-1].Len += take
		} else {
			z.Segs = append(z.Segs, Segment{Addr: pa, Len: take})
		}
		cur += VirtAddr(take)
		remaining -= take
	}
	return z, nil
}

// Check reports the error Translate would return for [addr, addr+n),
// without building the scatter list: for callers that only validate a
// range.
func (s *AddressSpace) Check(addr VirtAddr, n int) error {
	if n <= 0 {
		return fmt.Errorf("vm: translate of non-positive length %d", n)
	}
	for cur, remaining := addr, n; remaining > 0; {
		if _, ok := s.pt[cur.PageOf()]; !ok {
			return fmt.Errorf("vm: %s: page fault at %#x", s.name, cur)
		}
		take := PageSize - cur.Offset()
		cur += VirtAddr(take)
		remaining -= take
	}
	return nil
}

// TranslateCost reports the virtual time a Translate of this range costs.
func (s *AddressSpace) TranslateCost(addr VirtAddr, n int) sim.Duration {
	return s.cost.Cost(addr, n)
}

// Pin pins the pages of [addr, addr+n) so they cannot be freed (modelling
// pages wired for DMA). Pins nest.
func (s *AddressSpace) Pin(addr VirtAddr, n int) {
	pages := PagesSpanned(addr, n)
	for i := 0; i < pages; i++ {
		vpn := addr.PageOf() + uint64(i)
		if _, ok := s.pt[vpn]; !ok {
			panic(fmt.Sprintf("vm: pinning unmapped page %d in %s", vpn, s.name))
		}
		s.pinned[vpn]++
	}
}

// Unpin releases one pin on each page of the range.
func (s *AddressSpace) Unpin(addr VirtAddr, n int) {
	pages := PagesSpanned(addr, n)
	for i := 0; i < pages; i++ {
		vpn := addr.PageOf() + uint64(i)
		if s.pinned[vpn] <= 0 {
			panic(fmt.Sprintf("vm: unpinning unpinned page %d in %s", vpn, s.name))
		}
		s.pinned[vpn]--
		if s.pinned[vpn] == 0 {
			delete(s.pinned, vpn)
		}
	}
}

// PinnedPages reports the number of currently pinned pages.
func (s *AddressSpace) PinnedPages() int { return len(s.pinned) }
