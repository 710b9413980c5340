package pushpull

import (
	"testing"
	"testing/quick"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

func TestInterBTPSelection(t *testing.T) {
	opts := DefaultOptions() // BTP 760, BTP1 80, BTP2 680, overlap on
	cases := []struct {
		mode  Mode
		total int
		want  int
	}{
		{PushPull, 10000, 760},
		{PushPull, 400, 400}, // clamped to message size
		{PushZero, 10000, 0},
		{PushAll, 10000, 10000},
	}
	for _, c := range cases {
		opts.Mode = c.mode
		if got := opts.interBTP(c.total); got != c.want {
			t.Errorf("interBTP(%v, %d) = %d, want %d", c.mode, c.total, got, c.want)
		}
	}
	opts.Mode = PushPull
	opts.OverlapAck = false
	if got := opts.interBTP(10000); got != 760 {
		t.Errorf("non-overlap BTP = %d, want 760", got)
	}
}

func TestIntraBTPSelection(t *testing.T) {
	opts := DefaultOptions() // IntraBTP 16
	if got := opts.intraBTP(1000); got != 16 {
		t.Errorf("intraBTP(1000) = %d, want 16", got)
	}
	if got := opts.intraBTP(10); got != 10 {
		t.Errorf("intraBTP(10) = %d, want 10 (clamped)", got)
	}
	opts.Mode = PushAll
	if got := opts.intraBTP(1000); got != 1000 {
		t.Errorf("push-all intraBTP = %d, want whole message", got)
	}
}

func TestPushRunsSplitsOnlyWhenPulling(t *testing.T) {
	opts := DefaultOptions()
	// Whole message fits in the push: one run (the Fig. 4 "identical
	// below 760 B" behavior).
	if runs := pushRuns(opts, 400, 400); len(runs) != 1 || runs[0] != 400 {
		t.Errorf("runs(fully pushed) = %v, want [400]", runs)
	}
	// A pull follows: BTP(1)+BTP(2) split.
	if runs := pushRuns(opts, 760, 1400); len(runs) != 2 || runs[0] != 80 || runs[1] != 680 {
		t.Errorf("runs(pulling) = %v, want [80 680]", runs)
	}
	// BTP(1)=0 sweep: zero-length first run is kept as the announcement.
	opts.BTP1 = 0
	if runs := pushRuns(opts, 680, 1400); len(runs) != 2 || runs[0] != 0 || runs[1] != 680 {
		t.Errorf("runs(BTP1=0) = %v, want [0 680]", runs)
	}
	// No overlap: a single run regardless.
	opts = DefaultOptions()
	opts.OverlapAck = false
	if runs := pushRuns(opts, 760, 1400); len(runs) != 1 || runs[0] != 760 {
		t.Errorf("runs(no overlap) = %v, want [760]", runs)
	}
	// Nothing pushed: no runs.
	if runs := pushRuns(opts, 0, 100); runs != nil {
		t.Errorf("runs(btp=0) = %v, want nil", runs)
	}
}

func TestPushRunsCoverBTP(t *testing.T) {
	property := func(btp1Raw, btp2Raw uint16, totalRaw uint16, overlap bool) bool {
		opts := DefaultOptions()
		opts.OverlapAck = overlap
		opts.BTP1 = int(btp1Raw) % 800
		opts.BTP2 = int(btp2Raw) % 800
		opts.BTP = opts.BTP1 + opts.BTP2
		total := int(totalRaw)%16000 + 1
		btp := opts.interBTP(total)
		sum := 0
		for _, r := range pushRuns(opts, btp, total) {
			if r < 0 {
				return false
			}
			sum += r
		}
		return sum == btp
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPushedBufferSlots(t *testing.T) {
	e := sim.NewEngine(1)
	b := newPushedBuffer(e, 4096)
	if b.slots != 2 {
		t.Fatalf("4KB buffer has %d slots, want 2 (2KB slots)", b.slots)
	}
	if !b.tryReserveSlot() || !b.tryReserveSlot() {
		t.Fatal("could not reserve 2 slots")
	}
	if b.tryReserveSlot() {
		t.Error("third slot reserved in a 2-slot buffer")
	}
	b.releaseSlot()
	if !b.tryReserveSlot() {
		t.Error("slot not reusable after release")
	}
}

func TestPushedBufferSlotUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("slot underflow did not panic")
		}
	}()
	e := sim.NewEngine(1)
	newPushedBuffer(e, 4096).releaseSlot()
}

func TestPushedBufferBytesBlockUntilSpace(t *testing.T) {
	e := sim.NewEngine(1)
	b := newPushedBuffer(e, 1000)
	var reservedAt sim.Time = -1
	reserve := func(p *sim.Process, n int) {
		for !b.tryReserveBytes(n) {
			b.space.Wait(p)
		}
	}
	e.Go("first", func(p *sim.Process) {
		reserve(p, 800)
	})
	e.Go("second", func(p *sim.Process) {
		p.Sleep(1)
		reserve(p, 500) // must wait for the release at t=50
		reservedAt = p.Now()
	})
	e.Go("releaser", func(p *sim.Process) {
		p.Sleep(50)
		b.releaseBytes(800)
	})
	e.Run()
	if reservedAt != 50 {
		t.Errorf("blocked reservation completed at %v, want 50", reservedAt)
	}
	if b.bytesUsed() != 500 {
		t.Errorf("bytes used = %d, want 500", b.bytesUsed())
	}
}

func TestPushedBufferByteUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("byte underflow did not panic")
		}
	}()
	e := sim.NewEngine(1)
	newPushedBuffer(e, 1000).releaseBytes(1)
}

func TestModeString(t *testing.T) {
	if PushPull.String() != "push-pull" || PushZero.String() != "push-zero" || PushAll.String() != "push-all" {
		t.Error("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestWireSizes(t *testing.T) {
	f := fragMsg{data: make([]byte, 100)}
	if f.wireBytes() != 100+ProtoHeaderBytes {
		t.Errorf("frag wire bytes = %d", f.wireBytes())
	}
	if (pullReqMsg{}).wireBytes() != ProtoHeaderBytes+4 {
		t.Error("pull request wire bytes wrong")
	}
	if (linkAckMsg{}).wireBytes() != ProtoHeaderBytes {
		t.Error("link ack wire bytes wrong")
	}
	if MaxFragData != 1500-ProtoHeaderBytes {
		t.Error("MaxFragData inconsistent with MTU")
	}
}

func TestChannelAndProcessIDStrings(t *testing.T) {
	ch := ChannelID{From: ProcessID{0, 1}, To: ProcessID{2, 3}}
	if ch.String() != "n0.p1->n2.p3" {
		t.Errorf("channel string = %q", ch)
	}
}

func TestValidateRejectsBadGBN(t *testing.T) {
	opts := DefaultOptions()
	opts.GBN.Window = 0
	if opts.Validate() == nil {
		t.Error("zero go-back-N window validated")
	}
}

// TestLateCompletionWakeSkipsRecycledOp: a receive's op is recycled once
// the receive returns, so a completion wake for its old message that
// comes later (a signal cost outlasting the receive) must not reach the
// receive that reuses the op.
func TestLateCompletionWakeSkipsRecycledOp(t *testing.T) {
	e := sim.NewEngine(1)
	ep := &Endpoint{stack: &Stack{Node: smp.NewNode(e, 0, smp.DefaultConfig())}}
	op := ep.newRecvOp()
	old := &inboundMsg{op: op}
	op.msg = old
	ep.freeRecvOp(op)
	if reused := ep.newRecvOp(); reused != op {
		t.Fatal("the free list did not hand back the recycled op")
	}
	next := &inboundMsg{op: op}
	op.msg = next
	woken := 0
	e.Go("next receive", func(p *sim.Process) {
		op.done.Wait(p)
		woken++
	})
	e.RunUntil(0)
	old.wakeRecv()
	e.RunUntil(0)
	if woken != 0 {
		t.Fatal("a late wake for the old message woke the op's next receive")
	}
	next.wakeRecv()
	e.Run()
	if woken != 1 {
		t.Fatal("the op's own message did not wake its receive")
	}
	e.Shutdown()
}
