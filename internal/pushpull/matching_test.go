package pushpull

import (
	"testing"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// matchEndpoint builds a bare endpoint for white-box matching tests:
// the settle/bind/fail logic is pure state manipulation, so no cluster
// or traffic is needed.
func matchEndpoint() (*sim.Engine, *Endpoint) {
	e := sim.NewEngine(1)
	n := smp.NewNode(e, 0, smp.DefaultConfig())
	st := NewStack(n, DefaultOptions())
	return e, st.NewEndpoint(0, 0)
}

func newMsg(ep *Endpoint, laneSeq uint64, total int) *inboundMsg {
	return &inboundMsg{
		ch:      ChannelID{From: ProcessID{Node: 1}, To: ep.ID},
		msgID:   laneSeq,
		laneSeq: laneSeq,
		total:   total,
		buf:     make([]byte, total),
	}
}

func newOp(e *sim.Engine, bufLen int) *recvOp {
	return &recvOp{src: ProcessID{Node: 1}, tag: 0, bufLen: bufLen, done: sim.NewCond(e)}
}

// TestOversizedReceiveFailsWithoutConsuming is the regression for the
// failed-receive recovery bugs: a receive whose matched message
// overflows its buffer must error at match time *without binding the
// message* — binding first and unbinding later desynchronized the lane
// counter once later messages completed past it, and let a pull phase
// start (and its data be discarded unrecoverably) on behalf of a
// receive that was about to fail.
func TestOversizedReceiveFailsWithoutConsuming(t *testing.T) {
	e, ep := matchEndpoint()

	op1 := newOp(e, 500) // too small for A
	op2 := newOp(e, 5000)
	ep.register(op1)
	ep.register(op2)

	a := newMsg(ep, 0, 4000)
	ep.addInbound(a)
	if op1.err == nil {
		t.Fatal("undersized receive did not fail at match time")
	}
	if op1.msg != nil {
		t.Fatal("failed receive consumed the message")
	}
	if op2.msg != a {
		t.Fatal("next pending receive did not bind the message the failed one left")
	}

	// The lane keeps moving: B and C follow in sequence.
	b := newMsg(ep, 1, 100)
	ep.addInbound(b)
	op3 := newOp(e, 5000)
	ep.register(op3)
	if op3.msg != b {
		t.Fatal("lane did not advance to message B after the failure")
	}
	c := newMsg(ep, 2, 100)
	ep.addInbound(c)
	op4 := newOp(e, 5000)
	ep.register(op4)
	if op4.msg != c {
		t.Fatal("lane wedged: message C (laneSeq 2) not matchable")
	}
}

// TestRetryAfterOversizedFailureBindsSameMessage: the failed receive's
// message stays the lane head, so a retry with room gets exactly it.
func TestRetryAfterOversizedFailureBindsSameMessage(t *testing.T) {
	e, ep := matchEndpoint()

	a := newMsg(ep, 0, 4000)
	ep.addInbound(a)
	op1 := newOp(e, 500)
	ep.register(op1)
	if op1.err == nil || a.op != nil {
		t.Fatal("undersized receive against a parked message did not fail cleanly")
	}
	if got := ep.nextBind[a.lane()]; got != 0 {
		t.Fatalf("lane counter advanced to %d by a failed receive", got)
	}
	retry := newOp(e, 4000)
	ep.register(retry)
	if retry.msg != a {
		t.Fatal("retry with a big enough buffer did not bind the message")
	}
}

// TestPendingReceivesResolveInPostingOrder: with several receives
// pending, the earliest posted one gets the lane head.
func TestPendingReceivesResolveInPostingOrder(t *testing.T) {
	e, ep := matchEndpoint()
	op1 := newOp(e, 5000)
	op2 := newOp(e, 5000)
	ep.register(op1)
	ep.register(op2)
	a := newMsg(ep, 0, 100)
	b := newMsg(ep, 1, 100)
	ep.addInbound(a)
	ep.addInbound(b)
	if op1.msg != a || op2.msg != b {
		t.Fatalf("posting order broken: op1=%v op2=%v", op1.msg, op2.msg)
	}
}

// TestAnyTagSkipsReservedTags: the AnyTag wildcard is an application-
// range wildcard — a reserved-tag message (a collective round) parks
// past a pending wildcard receive, and only a receive naming the exact
// reserved tag binds it. Application-tag messages still match the
// wildcard as before.
func TestAnyTagSkipsReservedTags(t *testing.T) {
	e, ep := matchEndpoint()

	wild := newOp(e, 5000)
	wild.tag = AnyTag
	ep.register(wild)

	resv := newMsg(ep, 0, 100)
	resv.tag = ReservedTag + 3
	ep.addInbound(resv)
	if wild.msg != nil {
		t.Fatal("AnyTag receive swallowed a reserved-tag message")
	}

	// The exact reserved tag binds it; the wildcard stays pending.
	exact := newOp(e, 5000)
	exact.tag = ReservedTag + 3
	ep.register(exact)
	if exact.msg != resv {
		t.Fatal("exact reserved-tag receive did not bind the parked message")
	}

	// An application-tag arrival matches the waiting wildcard.
	app := newMsg(ep, 0, 100)
	app.tag = 7
	ep.addInbound(app)
	if wild.msg != app {
		t.Fatal("AnyTag receive did not bind the application-tag message")
	}
}
