package pushpull

import "pushpull/internal/sim"

// pushedBuffer is the per-endpoint staging area for pushed bytes whose
// destination is not yet known ("the buffer queue and pushed buffer" of
// the paper's Figure 1).
//
// Intranode it is byte-addressed: senders reserve exactly the bytes they
// push, waiting while the buffer is full (the kernel throttles them, so
// intranode pushes never overflow). Internode the kernel parks each
// arriving fragment in a fixed PushedSlotBytes slot — so a 4 KB buffer
// holds two fragments — and an arrival finding no free slot is refused,
// which go-back-N treats as loss. That refusal is the paper's Fig. 6
// Push-All collapse.
type pushedBuffer struct {
	capBytes  int
	usedBytes int
	slots     int
	usedSlots int
	space     *sim.Cond
}

func newPushedBuffer(e *sim.Engine, capBytes int) *pushedBuffer {
	return &pushedBuffer{
		capBytes: capBytes,
		slots:    capBytes / PushedSlotBytes,
		space:    sim.NewCond(e),
	}
}

// tryReserveBytes takes n intranode staging bytes if they fit. A sender
// that finds no room waits on space and tries again.
func (b *pushedBuffer) tryReserveBytes(n int) bool {
	if b.usedBytes+n > b.capBytes {
		return false
	}
	b.usedBytes += n
	return true
}

// releaseBytes returns intranode staging bytes.
func (b *pushedBuffer) releaseBytes(n int) {
	if n > b.usedBytes {
		panic("pushpull: pushed buffer byte accounting underflow")
	}
	b.usedBytes -= n
	b.space.Broadcast()
}

// tryReserveSlot takes one internode fragment slot if available.
func (b *pushedBuffer) tryReserveSlot() bool {
	if b.usedSlots >= b.slots {
		return false
	}
	b.usedSlots++
	return true
}

// releaseSlot returns one internode fragment slot.
func (b *pushedBuffer) releaseSlot() {
	if b.usedSlots <= 0 {
		panic("pushpull: pushed buffer slot accounting underflow")
	}
	b.usedSlots--
	b.space.Broadcast()
}

// bytesUsed reports current intranode byte occupancy (for invariants).
func (b *pushedBuffer) bytesUsed() int { return b.usedBytes }

// slotsUsed reports current internode slot occupancy (for invariants).
func (b *pushedBuffer) slotsUsed() int { return b.usedSlots }
