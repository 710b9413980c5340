package ether

import (
	"testing"
	"testing/quick"

	"pushpull/internal/sim"
)

// sink is a test Port collecting delivered frames.
type sink struct {
	id     int
	frames []Frame
}

func (s *sink) NodeID() int          { return s.id }
func (s *sink) DeliverFrame(f Frame) { s.frames = append(s.frames, f) }

func TestHubDeliversToDestination(t *testing.T) {
	e := sim.NewEngine(1)
	h := NewHub(e, FastEthernet())
	a, b, c := &sink{id: 0}, &sink{id: 1}, &sink{id: 2}
	h.Attach(a)
	h.Attach(b)
	h.Attach(c)

	send(e, h, a, Frame{Src: 0, Dst: 1, PayloadBytes: 100})
	e.Run()

	if len(b.frames) != 1 || len(c.frames) != 0 || len(a.frames) != 0 {
		t.Errorf("delivery: a=%d b=%d c=%d, want only b=1", len(a.frames), len(b.frames), len(c.frames))
	}
	if h.FramesSent() != 1 {
		t.Errorf("FramesSent = %d", h.FramesSent())
	}
}

func TestHubUnknownDestinationIgnored(t *testing.T) {
	e := sim.NewEngine(1)
	h := NewHub(e, FastEthernet())
	a := &sink{id: 0}
	h.Attach(a)
	send(e, h, a, Frame{Src: 0, Dst: 99, PayloadBytes: 64})
	e.Run() // must not panic
	if h.FramesSent() != 1 {
		t.Errorf("FramesSent = %d, want 1 (repeated even if unclaimed)", h.FramesSent())
	}
}

func TestHubDuplicateAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach did not panic")
		}
	}()
	e := sim.NewEngine(1)
	h := NewHub(e, FastEthernet())
	h.Attach(&sink{id: 0})
	h.Attach(&sink{id: 0})
}

func TestHubSlotTimeIs512BitTimes(t *testing.T) {
	h := NewHub(sim.NewEngine(1), FastEthernet())
	want := sim.Duration(512 * int64(sim.Second) / 100_000_000) // 5.12 µs
	if h.SlotTime() != want {
		t.Errorf("SlotTime = %v, want %v", h.SlotTime(), want)
	}
}

// Two stations blasting at each other on a hub serialize on the one wire:
// the total time must be at least the sum of all wire times, and
// collisions must be observed; the same load on a full-duplex link
// overlaps the two directions.
func TestHubHalfDuplexSerializesAndCollides(t *testing.T) {
	const frames = 50
	const payload = 1000

	run := func(hub bool) (sim.Time, uint64) {
		e := sim.NewEngine(1)
		cfg := FastEthernet()
		a, b := &sink{id: 0}, &sink{id: 1}
		var medium Medium
		var h *Hub
		if hub {
			h = NewHub(e, cfg)
			h.Attach(a)
			h.Attach(b)
			medium = h
		} else {
			medium = NewLink(e, cfg, a, b)
		}
		send(e, medium, a, repeat(Frame{Src: 0, Dst: 1, PayloadBytes: payload}, frames)...)
		send(e, medium, b, repeat(Frame{Src: 1, Dst: 0, PayloadBytes: payload}, frames)...)
		end := e.Run()
		var coll uint64
		if h != nil {
			coll = h.Collisions()
		}
		return end, coll
	}

	hubEnd, hubColl := run(true)
	linkEnd, _ := run(false)
	if hubEnd <= linkEnd {
		t.Errorf("hub (%v) not slower than full-duplex link (%v) under bidirectional load", hubEnd, linkEnd)
	}
	wire := FastEthernet().WireTime(payload)
	if minTotal := sim.Time(wire) * 2 * frames; hubEnd < minTotal {
		t.Errorf("hub finished at %v, before the serialized minimum %v", hubEnd, minTotal)
	}
	if hubColl == 0 {
		t.Error("bidirectional load on a hub produced no collisions")
	}
}

// Every transmitted frame is delivered exactly once on a lossless hub —
// deference and contention penalties may reorder timing but never drop
// or duplicate, for any traffic pattern.
func TestHubConservationProperty(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		e := sim.NewEngine(seed)
		h := NewHub(e, FastEthernet())
		a, b := &sink{id: 0}, &sink{id: 1}
		h.Attach(a)
		h.Attach(b)
		for i, sz := range sizes {
			n := int(sz)%MTU + 1
			src, dst, from := 0, 1, Port(a)
			if i%2 == 1 {
				src, dst, from = 1, 0, b
			}
			send(e, h, from, Frame{Src: src, Dst: dst, PayloadBytes: n})
		}
		e.Run()
		delivered := uint64(len(a.frames) + len(b.frames))
		return delivered == uint64(len(sizes)) && h.FramesSent() == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLinkLossRateDropsDeterministically(t *testing.T) {
	const frames = 2000
	cfg := FastEthernet()
	cfg.LossRate = 0.1

	run := func(seed uint64) (uint64, int) {
		e := sim.NewEngine(seed)
		a, b := &sink{id: 0}, &sink{id: 1}
		l := NewLink(e, cfg, a, b)
		send(e, l, a, repeat(Frame{Src: 0, Dst: 1, PayloadBytes: 200}, frames)...)
		e.Run()
		return l.FramesLost(), len(b.frames)
	}

	lost, got := run(42)
	if lost == 0 {
		t.Fatal("10% loss dropped nothing over 2000 frames")
	}
	if got+int(lost) != frames {
		t.Errorf("delivered %d + lost %d != sent %d", got, lost, frames)
	}
	// Loss should be in the statistical neighbourhood of 10%.
	if lost < frames/20 || lost > frames/4 {
		t.Errorf("lost %d of %d frames; implausible for 10%% loss", lost, frames)
	}
	// Determinism: the same seed loses exactly the same frames.
	lost2, got2 := run(42)
	if lost2 != lost || got2 != got {
		t.Errorf("same seed, different outcome: (%d,%d) vs (%d,%d)", lost, got, lost2, got2)
	}
}

func TestZeroLossRateLosesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := &sink{id: 0}, &sink{id: 1}
	l := NewLink(e, FastEthernet(), a, b)
	send(e, l, a, repeat(Frame{Src: 0, Dst: 1, PayloadBytes: 64}, 500)...)
	e.Run()
	if l.FramesLost() != 0 || len(b.frames) != 500 {
		t.Errorf("lossless link lost %d, delivered %d", l.FramesLost(), len(b.frames))
	}
}
