package vm

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func newSpace(t *testing.T) *AddressSpace {
	t.Helper()
	fa := NewFrameAllocator(256 << 20) // paper's 256 MB nodes
	return NewAddressSpace("test", fa, DefaultCostModel())
}

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		addr VirtAddr
		n    int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 2, 2},
		{0, 4 * PageSize, 4},
		{100, 4000, 2}, // crosses one boundary
	}
	for _, c := range cases {
		if got := PagesSpanned(c.addr, c.n); got != c.want {
			t.Errorf("PagesSpanned(%#x, %d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestAllocIsPageAligned(t *testing.T) {
	s := newSpace(t)
	for _, n := range []int{1, 100, PageSize, PageSize + 1, 12 << 10} {
		a := s.Alloc(n)
		if a.Offset() != 0 {
			t.Errorf("Alloc(%d) = %#x not page aligned", n, a)
		}
	}
}

func TestTranslateTilesRange(t *testing.T) {
	s := newSpace(t)
	property := func(sz uint16, off uint8, ln uint16) bool {
		size := int(sz)%32768 + 1
		a := s.Alloc(size)
		o := int(off) % size
		n := int(ln)%(size-o) + 1
		z, err := s.Translate(a+VirtAddr(o), n)
		if err != nil {
			return false
		}
		if z.Len() != n {
			return false
		}
		// Interior boundaries must be page-aligned on the virtual side:
		// each segment except the last must end where a page ends.
		covered := 0
		for i, seg := range z.Segs {
			if seg.Len <= 0 {
				return false
			}
			if i < len(z.Segs)-1 {
				endVirt := uint64(a) + uint64(o) + uint64(covered+seg.Len)
				if endVirt&PageMask != 0 {
					return false
				}
			}
			covered += seg.Len
		}
		return covered == n
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTranslateScattersAcrossPages(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(4 * PageSize)
	z, err := s.Translate(a, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Segs) < 2 {
		t.Errorf("4-page buffer translated to %d segments; interleaved allocator should scatter", len(z.Segs))
	}
}

func TestTranslateUnmappedFails(t *testing.T) {
	s := newSpace(t)
	if _, err := s.Translate(VirtAddr(0xdead000), 100); err == nil {
		t.Error("translating unmapped range succeeded")
	}
	if _, err := s.Translate(s.Alloc(100), 0); err == nil {
		t.Error("zero-length translate succeeded")
	}
}

// TestCheckMatchesTranslate: Check accepts exactly the ranges Translate
// accepts, with the same error text, including a range whose first page
// is mapped and whose second is not, and one that wraps past the top of
// the address space.
func TestCheckMatchesTranslate(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(2 * PageSize)
	s.Free(a+PageSize, PageSize)
	for _, r := range []struct {
		addr VirtAddr
		n    int
	}{
		{a, 100}, {a + 10, PageSize - 10}, {a + 100, PageSize},
		{VirtAddr(0xdead000), 100}, {a, 0}, {a, -1},
		{VirtAddr(^uint64(0) - 10), 100},
	} {
		_, terr := s.Translate(r.addr, r.n)
		cerr := s.Check(r.addr, r.n)
		if (terr == nil) != (cerr == nil) || (terr != nil && terr.Error() != cerr.Error()) {
			t.Errorf("Check(%#x, %d) = %v, Translate error %v", r.addr, r.n, cerr, terr)
		}
	}
	if err := s.Check(a+100, PageSize); err == nil || err.Error() !=
		fmt.Sprintf("vm: test: page fault at %#x", a+PageSize) {
		t.Errorf("Check across into a freed page: %v", err)
	}
}

// TestCheckAllocatesNothing: validating a multi-page range builds no
// scatter list.
func TestCheckAllocatesNothing(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(8 * PageSize)
	if got := testing.AllocsPerRun(100, func() {
		if err := s.Check(a+7, 7*PageSize); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Check allocates %v objects per call, want 0", got)
	}
}

func TestTranslateCostStaircase(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(64 << 10)
	m := s.CostModel()
	onePage := s.TranslateCost(a, 3000)
	twoPages := s.TranslateCost(a, 5000)
	if onePage != m.Base+m.PerPage {
		t.Errorf("1-page cost = %v, want base+1*per", onePage)
	}
	if twoPages != m.Base+2*m.PerPage {
		t.Errorf("2-page cost = %v, want base+2*per", twoPages)
	}
	if twoPages <= onePage {
		t.Error("cost must step up crossing a page boundary")
	}
}

func TestTranslateCostLongMessageNearPaper(t *testing.T) {
	// Paper: masking hides "around 12-13 µs for long messages". A 64 KB
	// buffer (16 pages) should cost on that order.
	s := newSpace(t)
	a := s.Alloc(64 << 10)
	c := s.TranslateCost(a, 64<<10)
	if us := c.Microseconds(); us < 8 || us > 18 {
		t.Errorf("64KB translate = %.1fµs, want ~12-13µs", us)
	}
}

func TestZeroBufferSlice(t *testing.T) {
	z := ZeroBuffer{Segs: []Segment{{Addr: 0x1000, Len: 100}, {Addr: 0x9000, Len: 50}}}
	sub := z.Slice(90, 30)
	if sub.Len() != 30 {
		t.Fatalf("slice len = %d, want 30", sub.Len())
	}
	if len(sub.Segs) != 2 {
		t.Fatalf("slice segs = %d, want 2", len(sub.Segs))
	}
	if sub.Segs[0].Addr != 0x1000+90 || sub.Segs[0].Len != 10 {
		t.Errorf("first seg = %+v", sub.Segs[0])
	}
	if sub.Segs[1].Addr != 0x9000 || sub.Segs[1].Len != 20 {
		t.Errorf("second seg = %+v", sub.Segs[1])
	}
}

func TestZeroBufferSliceProperty(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(32 << 10)
	z, err := s.Translate(a, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	property := func(off, n uint16) bool {
		o := int(off) % z.Len()
		k := int(n) % (z.Len() - o)
		sub := z.Slice(o, k)
		if sub.Len() != k {
			return false
		}
		// slicing a slice agrees with slicing the original
		if k > 2 {
			if sub.Slice(1, k-2).Len() != k-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroBufferSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slice did not panic")
		}
	}()
	z := ZeroBuffer{Segs: []Segment{{Addr: 0, Len: 10}}}
	z.Slice(5, 10)
}

func TestFreeReturnsFrames(t *testing.T) {
	fa := NewFrameAllocator(1 << 20)
	s := NewAddressSpace("x", fa, DefaultCostModel())
	before := fa.FreeFrames()
	a := s.Alloc(8 * PageSize)
	if fa.FreeFrames() != before-8 {
		t.Fatalf("free frames after alloc = %d, want %d", fa.FreeFrames(), before-8)
	}
	s.Free(a, 8*PageSize)
	if fa.FreeFrames() != before {
		t.Errorf("free frames after free = %d, want %d", fa.FreeFrames(), before)
	}
	if _, err := s.Translate(a, 10); err == nil {
		t.Error("translate after free succeeded")
	}
}

func TestPinPreventsFree(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(PageSize)
	s.Pin(a, PageSize)
	if s.PinnedPages() != 1 {
		t.Fatalf("pinned pages = %d, want 1", s.PinnedPages())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("freeing pinned page did not panic")
			}
		}()
		s.Free(a, PageSize)
	}()
	s.Unpin(a, PageSize)
	s.Free(a, PageSize) // now fine
}

func TestPinNests(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(PageSize)
	s.Pin(a, PageSize)
	s.Pin(a, PageSize)
	s.Unpin(a, PageSize)
	if s.PinnedPages() != 1 {
		t.Errorf("pin count not nested: pinned pages = %d, want 1", s.PinnedPages())
	}
	s.Unpin(a, PageSize)
	if s.PinnedPages() != 0 {
		t.Errorf("pinned pages = %d, want 0", s.PinnedPages())
	}
}

func TestFrameAllocatorNoDoubleAlloc(t *testing.T) {
	fa := NewFrameAllocator(1 << 20) // 256 frames
	seen := make(map[uint64]bool)
	for i := uint64(0); i < fa.TotalFrames(); i++ {
		fr := fa.Alloc()
		if seen[fr] {
			t.Fatalf("frame %d allocated twice", fr)
		}
		seen[fr] = true
	}
}

func TestFrameAllocatorInterleaves(t *testing.T) {
	fa := NewFrameAllocator(1 << 20)
	a, b := fa.Alloc(), fa.Alloc()
	if b == a+1 {
		t.Errorf("consecutive allocations %d, %d are physically adjacent; allocator should interleave", a, b)
	}
}

// allocN hands out n frames in order.
func allocN(fa *FrameAllocator, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = fa.Alloc()
	}
	return out
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestFrameAllocatorOrder pins the exact hand-out order: low and high
// halves alternate, and an odd frame count's last frame comes at the
// tail.
func TestFrameAllocatorOrder(t *testing.T) {
	for _, tc := range []struct {
		frames uint64
		want   []uint64
	}{
		{4, []uint64{0, 2, 1, 3}},
		{5, []uint64{0, 2, 1, 3, 4}},
		{1, []uint64{0}},
	} {
		fa := NewFrameAllocator(tc.frames * PageSize)
		got := allocN(fa, len(tc.want))
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%d frames: order %v, want %v", tc.frames, got, tc.want)
				break
			}
		}
		if fa.FreeFrames() != 0 {
			t.Errorf("%d frames: %d free after allocating all", tc.frames, fa.FreeFrames())
		}
	}
}

// TestFrameAllocatorFreeIsLIFO: freed frames are reused last-in first-out
// before the allocator hands out a fresh one.
func TestFrameAllocatorFreeIsLIFO(t *testing.T) {
	fa := NewFrameAllocator(8 * PageSize)
	got := allocN(fa, 3) // 0, 4, 1
	fa.Free(got[0])
	fa.Free(got[2])
	if fa.FreeFrames() != 7 {
		t.Fatalf("free frames = %d, want 7", fa.FreeFrames())
	}
	want := []uint64{got[2], got[0], 5, 2}
	for i, w := range allocN(fa, len(want)) {
		if w != want[i] {
			t.Fatalf("allocation %d after frees = %d, want %d (sequence %v)", i, w, want[i], want)
		}
	}
	if !fa.Allocated(got[0]) || fa.Allocated(3) {
		t.Error("Allocated disagrees with the hand-out sequence")
	}
}

func TestFrameAllocatorPanics(t *testing.T) {
	fa := NewFrameAllocator(2 * PageSize)
	allocN(fa, 2)
	mustPanic(t, "allocating past exhaustion", func() { fa.Alloc() })
	fa.Free(1)
	mustPanic(t, "double free", func() { fa.Free(1) })
	mustPanic(t, "freeing a never-allocated frame", func() { NewFrameAllocator(PageSize).Free(0) })
}

var allocatorSink *FrameAllocator

// TestNewFrameAllocatorIsLazy: a 256 MB node costs no per-frame state up
// front; a run allocates only what it touches.
func TestNewFrameAllocatorIsLazy(t *testing.T) {
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		allocatorSink = NewFrameAllocator(256 << 20)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4<<10 {
		t.Errorf("NewFrameAllocator(256 MB) allocated %d bytes, want under 4 KiB", per)
	}
}

func TestCostModelZeroLength(t *testing.T) {
	m := DefaultCostModel()
	if m.Cost(0, 0) != 0 {
		t.Error("zero-length translation should be free")
	}
	if m.Cost(0, -5) != 0 {
		t.Error("negative-length translation should be free")
	}
}
