package gbn

import (
	"fmt"
	"testing"
	"testing/quick"

	"pushpull/internal/sim"
)

// lossyWire connects a Sender and Receiver through an engine with a
// programmable drop rule and a fixed one-way delay.
type lossyWire struct {
	e        *sim.Engine
	delay    sim.Duration
	dropData func(seq uint32, attempt int) bool
	dropAck  func(ack uint32, attempt int) bool
	attempts map[uint32]int
	ackTries map[uint32]int

	s *Sender
	r *Receiver
}

func newLossyWire(e *sim.Engine, cfg Config, deliver func(Packet) bool) *lossyWire {
	w := &lossyWire{
		e:        e,
		delay:    10 * sim.Microsecond,
		attempts: make(map[uint32]int),
		ackTries: make(map[uint32]int),
		dropData: func(uint32, int) bool { return false },
		dropAck:  func(uint32, int) bool { return false },
	}
	w.s = NewSender(e, cfg, func(pkt Packet) {
		a := w.attempts[pkt.Seq]
		w.attempts[pkt.Seq] = a + 1
		if w.dropData(pkt.Seq, a) {
			return
		}
		e.Schedule(w.delay, func() { w.r.OnPacket(pkt) })
	})
	w.r = NewReceiver(deliver, func(ack uint32) {
		a := w.ackTries[ack]
		w.ackTries[ack] = a + 1
		if w.dropAck(ack, a) {
			return
		}
		e.Schedule(w.delay, func() { w.s.OnAck(ack) })
	})
	return w
}

func TestInOrderDeliveryNoLoss(t *testing.T) {
	e := sim.NewEngine(1)
	var got []uint32
	w := newLossyWire(e, DefaultConfig(), func(p Packet) bool {
		got = append(got, p.Seq)
		return true
	})
	for i := 0; i < 20; i++ {
		w.s.Send(100, i)
	}
	e.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
	for i, seq := range got {
		if seq != uint32(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if w.s.Retransmissions() != 0 {
		t.Errorf("retransmissions = %d on a lossless wire", w.s.Retransmissions())
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := Config{Window: 4, RTO: sim.Duration(100 * sim.Millisecond)}
	var maxInflight int
	w := newLossyWire(e, cfg, func(Packet) bool { return true })
	for i := 0; i < 20; i++ {
		w.s.Send(100, i)
		if w.s.Outstanding() > maxInflight {
			maxInflight = w.s.Outstanding()
		}
	}
	if maxInflight > 4 {
		t.Errorf("inflight reached %d, window is 4", maxInflight)
	}
	if w.s.Queued() != 16 {
		t.Errorf("queued = %d, want 16", w.s.Queued())
	}
	e.Run()
	if w.s.Outstanding() != 0 || w.s.Queued() != 0 {
		t.Error("sender did not drain")
	}
}

func TestLostDataRecoveredByTimeout(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	var got []uint32
	w := newLossyWire(e, cfg, func(p Packet) bool {
		got = append(got, p.Seq)
		return true
	})
	// Drop packet 2 on its first attempt only.
	w.dropData = func(seq uint32, attempt int) bool { return seq == 2 && attempt == 0 }
	for i := 0; i < 5; i++ {
		w.s.Send(100, i)
	}
	end := e.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, seq := range got {
		if seq != uint32(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
	if w.s.Timeouts() == 0 {
		t.Error("recovery happened without a timeout?")
	}
	// Recovery must take at least one RTO — this is the paper's ~150 ms
	// Push-All penalty.
	if end < sim.Time(cfg.RTO) {
		t.Errorf("finished at %v, before one RTO %v", end, cfg.RTO)
	}
}

func TestRejectedDeliveryBehavesAsLoss(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	accept := false
	var got []uint32
	w := newLossyWire(e, cfg, func(p Packet) bool {
		if !accept {
			return false
		}
		got = append(got, p.Seq)
		return true
	})
	w.s.Send(500, "x")
	// Upper layer opens buffer space only after 1 ms (a late receiver).
	e.Schedule(sim.Duration(sim.Millisecond), func() { accept = true })
	end := e.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if w.r.Rejected() == 0 {
		t.Error("no rejection recorded")
	}
	if end < sim.Time(cfg.RTO) {
		t.Errorf("recovered at %v, want >= RTO %v", end, cfg.RTO)
	}
}

func TestLostAckRecoveredByDuplicate(t *testing.T) {
	e := sim.NewEngine(1)
	var got []uint32
	w := newLossyWire(e, DefaultConfig(), func(p Packet) bool {
		got = append(got, p.Seq)
		return true
	})
	dropped := false
	w.dropAck = func(ack uint32, attempt int) bool {
		if !dropped {
			dropped = true
			return true
		}
		return false
	}
	w.s.Send(100, "a")
	e.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want exactly 1 (duplicates must not re-deliver)", len(got))
	}
	if w.r.Duplicates() == 0 {
		t.Error("retransmission after lost ack not seen as duplicate")
	}
	if w.s.Outstanding() != 0 {
		t.Error("sender stuck with outstanding packet")
	}
}

func TestOutOfOrderDiscarded(t *testing.T) {
	e := sim.NewEngine(1)
	var got []uint32
	w := newLossyWire(e, DefaultConfig(), func(p Packet) bool {
		got = append(got, p.Seq)
		return true
	})
	// Drop packet 0 once; packets 1..3 arrive first and must be discarded,
	// then the whole window is retransmitted in order.
	w.dropData = func(seq uint32, attempt int) bool { return seq == 0 && attempt == 0 }
	for i := 0; i < 4; i++ {
		w.s.Send(100, i)
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("delivered %d, want 4", len(got))
	}
	for i, seq := range got {
		if seq != uint32(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
	if w.r.OutOfOrder() == 0 {
		t.Error("no out-of-order discards recorded")
	}
}

// TestDeliveryUnderArbitraryLoss is the package's core property: for any
// bounded loss pattern on data and ack packets, every packet is delivered
// exactly once, in order.
func TestDeliveryUnderArbitraryLoss(t *testing.T) {
	property := func(seed uint64, nPkts uint8, dataLossPct, ackLossPct uint8) bool {
		n := int(nPkts)%50 + 1
		dl := int(dataLossPct) % 60 // < 100 so progress is guaranteed
		al := int(ackLossPct) % 60
		e := sim.NewEngine(1)
		rng := sim.NewRand(seed)
		var got []uint32
		w := newLossyWire(e, Config{Window: 5, RTO: sim.Duration(2 * sim.Millisecond)}, func(p Packet) bool {
			got = append(got, p.Seq)
			return true
		})
		// Random loss, but never drop any packet more than 4 times so the
		// simulation terminates.
		w.dropData = func(seq uint32, attempt int) bool {
			return attempt < 4 && rng.Intn(100) < dl
		}
		w.dropAck = func(ack uint32, attempt int) bool {
			return attempt < 4 && rng.Intn(100) < al
		}
		for i := 0; i < n; i++ {
			w.s.Send(64, i)
		}
		e.Run()
		if len(got) != n {
			return false
		}
		for i, seq := range got {
			if seq != uint32(i) {
				return false
			}
		}
		return w.s.Outstanding() == 0 && w.s.Queued() == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStaleAckIgnored(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSender(e, DefaultConfig(), func(Packet) {})
	s.Send(10, "a")
	s.OnAck(1)
	s.OnAck(1) // duplicate
	s.OnAck(0) // stale
	if s.Outstanding() != 0 {
		t.Error("outstanding after full ack")
	}
}

func TestAckBeyondWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ack beyond window did not panic")
		}
	}()
	e := sim.NewEngine(1)
	s := NewSender(e, DefaultConfig(), func(Packet) {})
	s.Send(10, "a")
	s.OnAck(5)
}

func TestZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	NewSender(sim.NewEngine(1), Config{Window: 0, RTO: 1}, func(Packet) {})
}

func TestPendingDrainsInOrder(t *testing.T) {
	e := sim.NewEngine(1)
	var sent []uint32
	s := NewSender(e, Config{Window: 2, RTO: sim.Duration(sim.Millisecond)}, func(p Packet) {
		sent = append(sent, p.Seq)
	})
	for i := 0; i < 6; i++ {
		s.Send(10, i)
	}
	if len(sent) != 2 {
		t.Fatalf("transmitted %d with window 2, want 2", len(sent))
	}
	s.OnAck(1)
	s.OnAck(2)
	s.OnAck(4)
	// All six must have hit the wire by now (OnAck promotes pending
	// packets synchronously). Ack them so the RTO timer disarms and the
	// engine can drain.
	s.OnAck(6)
	e.Run()
	for i, seq := range sent {
		if seq != uint32(i) {
			t.Fatalf("transmit order broken: %v", sent)
		}
	}
	if len(sent) != 6 {
		t.Errorf("transmitted %d of 6", len(sent))
	}
}

func TestReceiverCounters(t *testing.T) {
	acks := 0
	r := NewReceiver(func(Packet) bool { return true }, func(uint32) { acks++ })
	r.OnPacket(Packet{Seq: 0})
	r.OnPacket(Packet{Seq: 0}) // duplicate
	r.OnPacket(Packet{Seq: 5}) // gap
	if r.Delivered() != 1 || r.Duplicates() != 1 || r.OutOfOrder() != 1 {
		t.Errorf("counters: delivered %d dup %d ooo %d", r.Delivered(), r.Duplicates(), r.OutOfOrder())
	}
	if r.Expected() != 1 {
		t.Errorf("expected = %d, want 1", r.Expected())
	}
	if acks != 3 {
		t.Errorf("acks = %d, want 3 (every packet acked or re-acked)", acks)
	}
}

// TestClassifyCommitMatchesOnPacket: a receiver driven through Classify
// and Commit acknowledges exactly as one driven through OnPacket, for
// in-order packets the upper layer takes or rejects, duplicates and
// gaps, and ends with the same counters.
func TestClassifyCommitMatchesOnPacket(t *testing.T) {
	type arrival struct {
		seq    uint32
		accept bool // the upper layer's verdict, if the packet is in order
	}
	arrivals := []arrival{
		{0, true},  // in order: delivered, ack 1
		{0, true},  // duplicate: re-ack 1
		{3, true},  // gap: re-ack 1
		{1, false}, // in order but rejected: no ack
		{2, true},  // gap behind the rejected packet: re-ack 1
		{1, true},  // the retransmission is taken: ack 2
		{2, true},  // ack 3
		{1, true},  // duplicate: re-ack 3
	}
	wantAcks := []uint32{1, 1, 1, 1, 2, 3, 3}
	run := func(split bool) (acks []uint32, r *Receiver) {
		var verdict bool
		r = NewReceiver(func(Packet) bool { return verdict }, func(a uint32) { acks = append(acks, a) })
		for _, a := range arrivals {
			verdict = a.accept
			pkt := Packet{Seq: a.seq}
			if !split {
				r.OnPacket(pkt)
			} else if r.Classify(pkt) {
				r.Commit(a.accept)
			}
		}
		return acks, r
	}
	onPacket, whole := run(false)
	split, parts := run(true)
	if fmt.Sprint(onPacket) != fmt.Sprint(wantAcks) || fmt.Sprint(split) != fmt.Sprint(wantAcks) {
		t.Fatalf("acks: OnPacket %v, Classify/Commit %v, want %v", onPacket, split, wantAcks)
	}
	for _, r := range []*Receiver{whole, parts} {
		if r.Expected() != 3 || r.Delivered() != 3 || r.Rejected() != 1 || r.Duplicates() != 2 || r.OutOfOrder() != 2 {
			t.Errorf("counters: expected %d delivered %d rejected %d dup %d ooo %d, want 3 3 1 2 2",
				r.Expected(), r.Delivered(), r.Rejected(), r.Duplicates(), r.OutOfOrder())
		}
	}
}

// TestClassifyLeavesInOrderPacketOpen: Classify acknowledges nothing for
// an in-order packet and does not advance the window; only Commit does.
func TestClassifyLeavesInOrderPacketOpen(t *testing.T) {
	var acks []uint32
	r := NewReceiver(nil, func(a uint32) { acks = append(acks, a) })
	if !r.Classify(Packet{Seq: 0}) {
		t.Fatal("Classify refused the in-order packet")
	}
	if len(acks) != 0 || r.Expected() != 0 || r.Delivered() != 0 {
		t.Fatalf("Classify settled the packet: acks %v, expected %d, delivered %d", acks, r.Expected(), r.Delivered())
	}
	r.Commit(true)
	if fmt.Sprint(acks) != "[1]" || r.Expected() != 1 || r.Delivered() != 1 {
		t.Fatalf("after Commit: acks %v, expected %d, delivered %d", acks, r.Expected(), r.Delivered())
	}
}

func TestTimerNotArmedWhenIdle(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSender(e, DefaultConfig(), func(Packet) {})
	s.Send(10, "x")
	s.OnAck(1)
	end := e.Run()
	// The only scheduled event is the now-disarmed RTO check; it must
	// not retransmit.
	if s.Retransmissions() != 0 {
		t.Errorf("idle sender retransmitted %d times (end %v)", s.Retransmissions(), end)
	}
}

// TestWindowSlidesInOrderAcrossCompaction drives the sender's inflight
// and pending FIFOs through many partial acknowledgements, so their head
// indexes compact and wrap repeatedly: packets still reach the wire in
// sequence order, a timeout resends exactly the unacknowledged window in
// order, and Outstanding and Queued track the window at every step.
func TestWindowSlidesInOrderAcrossCompaction(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := Config{Window: 4, RTO: sim.Millisecond}
	var wire []uint32
	s := NewSender(e, cfg, func(pkt Packet) { wire = append(wire, pkt.Seq) })
	const total = 40
	for i := 0; i < total; i++ {
		s.Send(100, i)
	}
	if s.Outstanding() != 4 || s.Queued() != total-4 {
		t.Fatalf("Outstanding()=%d Queued()=%d after sending, want 4 and %d", s.Outstanding(), s.Queued(), total-4)
	}
	acked := uint32(0)
	for _, step := range []uint32{1, 3, 2, 4, 1, 1, 3, 2, 4, 3, 1, 2, 4, 3} {
		acked += step
		s.OnAck(acked)
		queued := total - int(acked) - 4
		if queued < 0 {
			queued = 0
		}
		if s.Queued() != queued || s.Outstanding() != min(4, total-int(acked)) {
			t.Fatalf("after ack %d: Outstanding()=%d Queued()=%d, want %d and %d",
				acked, s.Outstanding(), s.Queued(), min(4, total-int(acked)), queued)
		}
	}
	for i, seq := range wire {
		if seq != uint32(i) {
			t.Fatalf("wire order broken at %d: %v", i, wire)
		}
	}
	sent := len(wire)
	e.RunUntil(sim.Time(cfg.RTO)) // the timer fires once: resend the window
	if got := wire[sent:]; len(got) != 4 || got[0] != acked || got[3] != acked+3 {
		t.Fatalf("timeout resent %v, want seqs %d..%d", got, acked, acked+3)
	}
}
