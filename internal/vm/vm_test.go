package vm

import (
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
		if a%PageSize != 0 {
			t.Errorf("Alloc(%d) = %#x not page aligned", n, a)
		}
	}
}

// TestCheckAcceptsAllocatedRanges: every non-empty subrange of an
// allocation is mapped, and the range one byte past the allocation's
// last page is not.
func TestCheckAcceptsAllocatedRanges(t *testing.T) {
	s := newSpace(t)
	property := func(sz uint16, off uint8, ln uint16) bool {
		size := int(sz)%32768 + 1
		a := s.Alloc(size)
		o := int(off) % size
		n := int(ln)%(size-o) + 1
		end := PagesSpanned(a, size) * PageSize
		return s.Check(a+VirtAddr(o), n) == nil && s.Check(a, end) == nil && s.Check(a, end+1) != nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCheckErrors pins Check's exact errors against a space with two
// mapped pages at 0x40000000. The fault address is the range's first
// unmapped byte: its start when the start is unmapped, else the end of
// the mapped pages.
func TestCheckErrors(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(2 * PageSize)
	if a != 0x40000000 {
		t.Fatalf("first allocation at %#x, want 0x40000000", a)
	}
	for _, c := range []struct {
		addr VirtAddr
		n    int
		want string
	}{
		{a, 2 * PageSize, ""},
		{a + 100, 2*PageSize - 100, ""},
		{a, 0, "vm: translate of non-positive length 0"},
		{a, -1, "vm: translate of non-positive length -1"},
		{a - 1, 10, "vm: test: page fault at 0x3fffffff"},
		{a - PageSize, 100, "vm: test: page fault at 0x3ffff000"},
		{0, 1, "vm: test: page fault at 0x0"},
		{a + 2*PageSize, 1, "vm: test: page fault at 0x40002000"},
		{a + 2*PageSize + 5, 100, "vm: test: page fault at 0x40002005"},
		{a + 100, 2 * PageSize, "vm: test: page fault at 0x40002000"},
		{a, 2*PageSize + 1, "vm: test: page fault at 0x40002000"},
		{a + 2*PageSize - 1, 2, "vm: test: page fault at 0x40002000"},
		{VirtAddr(^uint64(0) - 10), 100, "vm: test: page fault at 0xfffffffffffffff5"},
	} {
		got := ""
		if err := s.Check(c.addr, c.n); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("Check(%#x, %d) = %q, want %q", c.addr, c.n, got, c.want)
		}
	}
}

// TestCheckAllocatesNothing: validating a multi-page range allocates
// nothing.
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
	m := DefaultCostModel()
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

// TestFrameAllocatorPanics: a node's frames are shared by its spaces,
// an allocation that fits exactly succeeds, and the next one panics.
func TestFrameAllocatorPanics(t *testing.T) {
	fa := NewFrameAllocator(3*PageSize + PageSize/2) // rounds down to 3 frames
	a := NewAddressSpace("a", fa, DefaultCostModel())
	b := NewAddressSpace("b", fa, DefaultCostModel())
	a.Alloc(PageSize + 1)
	b.Alloc(PageSize)
	defer func() {
		if r := recover(); r != "vm: out of physical frames" {
			t.Errorf("allocating past exhaustion: recovered %v", r)
		}
	}()
	b.Alloc(1)
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
