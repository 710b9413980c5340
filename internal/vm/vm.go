// Package vm models the virtual-memory subsystem the paper's messaging
// layer lives on, as far as the model reads it: each process has a
// protected user address space of page-aligned buffers, and resolving a
// buffer's physical pages — the Cross-Space Zero Buffer a kernel thread
// copies through (§4.2) — costs virtual time.
//
// The scatter list itself is never built: no simulated byte moves
// through a physical address, so only the walk's price matters. That
// price grows stepwise with the number of pages crossed (CostModel). The
// staircase is load-bearing: it produces the Fig. 3 Push-All cliff near
// 4 KB and the 12–13 µs win of Address Translation Overhead Masking
// (§4.3).
package vm

import "pushpull/internal/sim"

// Page geometry (i386, as on the paper's testbed).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// VirtAddr is a virtual address within one address space.
type VirtAddr uint64

// PagesSpanned reports how many pages the range [addr, addr+n) touches.
func PagesSpanned(addr VirtAddr, n int) int {
	if n <= 0 {
		return 0
	}
	first := uint64(addr) >> PageShift
	last := (uint64(addr) + uint64(n) - 1) >> PageShift
	return int(last - first + 1)
}

// CostModel prices address translation: a fixed kernel-side setup cost plus
// a per-page table walk. The paper measures the total at 12–13 µs for long
// messages.
type CostModel struct {
	Base    sim.Duration
	PerPage sim.Duration
}

// DefaultCostModel matches the paper's testbed: walking the page tables of
// a user process from a kernel thread on a 200 MHz Pentium Pro.
func DefaultCostModel() CostModel {
	return CostModel{Base: 1200 * sim.Nanosecond, PerPage: 720 * sim.Nanosecond}
}

// Cost reports the translation cost for the range [addr, addr+n).
func (m CostModel) Cost(addr VirtAddr, n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return m.Base + sim.Duration(PagesSpanned(addr, n))*m.PerPage
}
