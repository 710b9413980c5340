package ether

import (
	"testing"

	"pushpull/internal/sim"
)

// collector is a Port that records delivered frames.
type collector struct {
	id     int
	frames []Frame
	times  []sim.Time
	e      *sim.Engine
}

func (c *collector) NodeID() int { return c.id }
func (c *collector) DeliverFrame(f Frame) {
	c.frames = append(c.frames, f)
	c.times = append(c.times, c.e.Now())
}

// sender transmits its frames in order from one port of a Medium, from
// a tasklet, the way NICs and switch ports drive their media.
type sender struct {
	m      Medium
	from   Port
	frames []Frame
	cur    TxCursor
}

func (s *sender) step(tk *sim.Tasklet) {
	for len(s.frames) > 0 && s.m.TransmitStep(tk, &s.cur, s.from, s.frames[0]) {
		s.cur = TxCursor{}
		s.frames = s.frames[1:]
	}
}

// send starts a tasklet that transmits frames on m from port from.
func send(e *sim.Engine, m Medium, from Port, frames ...Frame) {
	s := &sender{m: m, from: from, frames: frames}
	e.NewTasklet("tx", s.step).Start()
}

// repeat returns n copies of f.
func repeat(f Frame, n int) []Frame {
	fs := make([]Frame, n)
	for i := range fs {
		fs[i] = f
	}
	return fs
}

func TestWireTime(t *testing.T) {
	cfg := FastEthernet()
	// 1500-byte payload: (1500+30)*8 bits at 100 Mb/s = 122.4 µs
	if got := cfg.WireTime(1500); got != 122400*sim.Nanosecond {
		t.Errorf("WireTime(1500) = %v, want 122.4µs", got)
	}
	// Minimum frame: 4-byte payload padded to 64: (64+30)*8 = 7.52µs
	if got := cfg.WireTime(4); got != 7520*sim.Nanosecond {
		t.Errorf("WireTime(4) = %v, want 7.52µs", got)
	}
}

func TestPayloadRateCeilingNearPaper(t *testing.T) {
	cfg := FastEthernet()
	rate := cfg.PayloadRate(MTU-16) / 1e6 // MTU minus a protocol header
	if rate < 12.0 || rate > 12.5 {
		t.Errorf("payload ceiling = %.2f MB/s, want ~12.1-12.2 (paper reaches 12.1)", rate)
	}
}

func TestLinkDelivers(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	send(e, l, a, Frame{Src: 0, Dst: 1, PayloadBytes: 100, Payload: "hello"})
	e.Run()
	if len(b.frames) != 1 || b.frames[0].Payload != "hello" {
		t.Fatalf("b received %v", b.frames)
	}
	want := sim.Time(cfg.WireTime(100) + sim.Duration(cfg.Propagation))
	if b.times[0] != want {
		t.Errorf("delivery at %v, want %v", b.times[0], want)
	}
	if len(a.frames) != 0 {
		t.Error("frame echoed to sender")
	}
}

func TestLinkSerializesOneDirection(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	for i := 0; i < 2; i++ {
		send(e, l, a, Frame{Src: 0, Dst: 1, PayloadBytes: 1500})
	}
	e.Run()
	if len(b.times) != 2 {
		t.Fatal("frames lost")
	}
	gap := b.times[1].Sub(b.times[0])
	if gap != cfg.WireTime(1500) {
		t.Errorf("back-to-back gap = %v, want one wire time %v", gap, cfg.WireTime(1500))
	}
}

func TestLinkFullDuplex(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	send(e, l, a, Frame{Src: 0, Dst: 1, PayloadBytes: 1500})
	send(e, l, b, Frame{Src: 1, Dst: 0, PayloadBytes: 1500})
	e.Run()
	// Opposite directions must not serialize against each other.
	want := sim.Time(cfg.WireTime(1500) + sim.Duration(cfg.Propagation))
	if a.times[0] != want || b.times[0] != want {
		t.Errorf("full-duplex deliveries at %v / %v, want both %v", a.times[0], b.times[0], want)
	}
}

func TestLinkForeignPortPanics(t *testing.T) {
	e := sim.NewEngine(1)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	c := &collector{id: 2, e: e}
	l := NewLink(e, FastEthernet(), a, b)
	send(e, l, c, Frame{Src: 2, Dst: 1, PayloadBytes: 10})
	defer func() {
		if recover() == nil {
			t.Error("transmit from foreign port did not panic")
		}
	}()
	e.Run()
}

func TestSwitchForwards(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	sw := NewSwitch(e, cfg, 2*sim.Microsecond)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	la := sw.Attach(a, 0)
	sw.Attach(b, 0)
	send(e, la, a, Frame{Src: 0, Dst: 1, PayloadBytes: 200, Payload: 42})
	e.Run()
	if len(b.frames) != 1 || b.frames[0].Payload != 42 {
		t.Fatalf("switch did not forward: %v", b.frames)
	}
	// Store-and-forward: at least two serializations plus forwarding.
	minTime := sim.Time(2*cfg.WireTime(200) + 2*sim.Duration(cfg.Propagation) + 2*sim.Microsecond)
	if b.times[0] < minTime {
		t.Errorf("delivery at %v faster than store-and-forward minimum %v", b.times[0], minTime)
	}
}

func TestSwitchUnknownDestinationDropped(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, FastEthernet(), 0)
	a := &collector{id: 0, e: e}
	la := sw.Attach(a, 0)
	send(e, la, a, Frame{Src: 0, Dst: 99, PayloadBytes: 64})
	e.Run()
	if sw.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", sw.Dropped())
	}
}

func TestSwitchOutputQueueOverflow(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	sw := NewSwitch(e, cfg, 0)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	c := &collector{id: 2, e: e}
	la := sw.Attach(a, 1) // 1-frame output queues
	lc := sw.Attach(c, 1)
	sw.Attach(b, 1)
	// Two senders blast frames at b simultaneously; with a 1-frame output
	// queue some must drop.
	for i := 0; i < 4; i++ {
		send(e, la, a, Frame{Src: 0, Dst: 1, PayloadBytes: 1500})
		send(e, lc, c, Frame{Src: 2, Dst: 1, PayloadBytes: 1500})
	}
	e.Run()
	if sw.Dropped() == 0 {
		t.Error("congested 1-frame output queue never dropped")
	}
	if len(b.frames)+int(sw.Dropped()) != 8 {
		t.Errorf("delivered %d + dropped %d != sent 8", len(b.frames), sw.Dropped())
	}
}

func TestSwitchAttachOnForeignEnginePanics(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, FastEthernet(), 0)
	defer func() {
		if recover() == nil {
			t.Error("AttachOn with a foreign engine did not panic")
		}
	}()
	sw.AttachOn(&collector{id: 0, e: e}, sim.NewEngine(1), 0)
}
