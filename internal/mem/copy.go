package mem

import "pushpull/internal/sim"

// Copier prices a node's memory copies and programmed-I/O stores. The
// charging happens in smp.Thread.Copy and PIO: a transfer occupies both
// the calling thread and the memory bus (concurrent transfers on one node
// serialize).
type Copier struct {
	bus *Bus
}

// NewCopier returns a copier bound to bus.
func NewCopier(bus *Bus) *Copier { return &Copier{bus: bus} }

// CopyCost reports the duration of copying n bytes, without performing it.
// Small cache-resident copies run slightly faster than bus-limited streams.
func (c *Copier) CopyCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	cfg := c.bus.cfg
	rate := cfg.CopyBytesPerSec
	if 2*n <= cfg.L2Bytes && cfg.CacheBonus > 1 {
		rate = int64(float64(rate) * cfg.CacheBonus)
	}
	return cfg.CopyStartup + TransferTime(n, rate)
}

// PIOCost reports the duration of a programmed-I/O store of n bytes into
// uncached device memory (e.g. user-level copy into the NIC outgoing FIFO).
func (c *Copier) PIOCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	cfg := c.bus.cfg
	return cfg.CopyStartup + TransferTime(n, cfg.PIOBytesPerSec)
}
