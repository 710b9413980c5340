package mem

import (
	"testing"
	"testing/quick"

	"pushpull/internal/sim"
)

func TestCycleTime(t *testing.T) {
	cfg := PentiumPro200()
	if got := cfg.CycleTime(); got != 5 {
		t.Errorf("cycle time = %dns, want 5ns at 200 MHz", got)
	}
	if got := cfg.Cycles(100_000); got != 500*sim.Microsecond {
		t.Errorf("100k cycles = %v, want 500µs", got)
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(100_000_000, 100_000_000); got != sim.Duration(sim.Second) {
		t.Errorf("100MB at 100MB/s = %v, want 1s", got)
	}
	if got := TransferTime(0, 100); got != 0 {
		t.Errorf("zero bytes = %v, want 0", got)
	}
	if got := TransferTime(-5, 100); got != 0 {
		t.Errorf("negative bytes = %v, want 0", got)
	}
}

func TestCopyCostMonotonic(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCopier(NewBus(e, PentiumPro200()))
	property := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.CopyCost(x) <= c.CopyCost(y)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyCostHasStartup(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := PentiumPro200()
	c := NewCopier(NewBus(e, cfg))
	if got := c.CopyCost(1); got < cfg.CopyStartup {
		t.Errorf("tiny copy cost %v below startup %v", got, cfg.CopyStartup)
	}
	if c.CopyCost(0) != 0 {
		t.Error("zero-byte copy should be free")
	}
}

func TestCacheBonusAppliesOnlyToSmallCopies(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := PentiumPro200()
	c := NewCopier(NewBus(e, cfg))
	small := c.CopyCost(64 << 10) // 2*64K fits in 512K L2
	large := c.CopyCost(1 << 20)  // exceeds L2
	// per-byte rate of the small copy must be strictly better
	smallRate := float64(64<<10) / float64(small-cfg.CopyStartup)
	largeRate := float64(1<<20) / float64(large-cfg.CopyStartup)
	if smallRate <= largeRate {
		t.Errorf("cache-resident copy rate %.2f not better than streaming %.2f", smallRate, largeRate)
	}
}

func TestCopyOccupiesBusSerially(t *testing.T) {
	e := sim.NewEngine(1)
	bus := NewBus(e, PentiumPro200())
	c := NewCopier(bus)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Go("copier", func(p *sim.Process) {
			bus.Occupy(p, c.CopyCost(1<<20))
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	if len(ends) != 2 {
		t.Fatal("copies did not finish")
	}
	single := c.CopyCost(1 << 20)
	if ends[0] != sim.Time(single) {
		t.Errorf("first copy ended at %v, want %v", ends[0], single)
	}
	if ends[1] != sim.Time(2*single) {
		t.Errorf("second copy should serialize on bus: ended %v, want %v", ends[1], 2*single)
	}
	if bus.Contended() != 1 {
		t.Errorf("bus contended = %d, want 1", bus.Contended())
	}
}

func TestPIOSlowerThanCopy(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCopier(NewBus(e, PentiumPro200()))
	if c.PIOCost(1024) <= c.CopyCost(1024) {
		t.Error("PIO into uncached device memory should cost more than a cached copy")
	}
}

func TestEffectiveCopyBandwidthNearPaper(t *testing.T) {
	// The paper reports 350.9 MB/s peak one-copy bandwidth at ~4000 B
	// including protocol overhead; the raw copy engine must therefore
	// stream a 4 KB block at better than that but below the 533 MB/s bus.
	e := sim.NewEngine(1)
	c := NewCopier(NewBus(e, PentiumPro200()))
	d := c.CopyCost(4096)
	rate := float64(4096) / d.Seconds() / 1e6
	if rate < 360 || rate > 533 {
		t.Errorf("4KB copy rate = %.1f MB/s, want within (360, 533)", rate)
	}
}
