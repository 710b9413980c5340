package pushpull

import (
	"fmt"

	"pushpull/internal/ether"
	"pushpull/internal/gbn"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// rxHandler is the reception handler (paper §2 stages 3-4) of one pooled
// NIC receive record. It runs on the tasklet tier, in interrupt or
// polling context on the CPU the node's policy chose: it routes each
// frame to its channel's session and lane and delivers in-order packets
// to the protocol. Every point where the handler waits (a timed cost,
// the handler lock, a bus copy, a translation still in flight) is a
// resume point: the handler parks its task there and returns, and its
// next Step continues from pc.
type rxHandler struct {
	s    *Stack
	rail int
	pc   handlerPC
	// The packet in hand, its lane's receiver and whether it is a pull
	// request (control lane); ok is the delivery outcome for Commit.
	rcv  *gbn.Receiver
	pkt  gbn.Packet
	ctrl bool
	ok   bool
	// Delivery state: a data fragment and its message, or a pull request
	// and the send it serves. rng, off and end locate the next pull
	// fragment: rng indexes the redo ranges, then the unpushed tail.
	ep            *Endpoint
	frag          fragMsg
	m             *inboundMsg
	req           pullReqMsg
	op            *sendOp
	sess          *chanSession
	rng, off, end int
}

// handlerPC is a receive handler's resume point.
type handlerPC int8

const (
	hStart  handlerPC = iota // route the frame, take the handler lock
	hLocked                  // lock held: classify the packet
	hCommit                  // delivered: ack or reject it
	hUnlock                  // release the handler lock

	fragStart       // find the fragment's message
	fragNew         // QueueOp elapsed: register a new message
	fragFound       // direct to the bound receive, or park
	fragCopy        // destination translated: copy into it
	fragCopied      // copy done: start the pull phase if due
	fragPullTrigger // pull request queued: trigger the NIC
	fragPullPost    // NIC triggered: send the pull request
	fragDone        // complete the message if it is whole
	fragSignal      // signal cost elapsed: wake the receive
	fragParked      // QueueOp elapsed: wake a receive bound meanwhile

	pullStart  // find the send the pull request is for
	pullQueued // QueueOp elapsed: grant the request
	pullGrant  // source translated: start transmitting
	pullFrag   // next pull fragment: trigger the NIC
	pullSend   // NIC triggered: send the fragment
)

// Step implements nic.RxHandler. The handler lock serializes everything
// from go-back-N classification to the ack (paper §2 stage 1: "the
// system has to restrict that only one user or kernel thread invokes
// the thread at a time"). Without it, a handler parked in a copy while
// the next frame's handler runs would reenter the go-back-N receiver
// and misorder in-order traffic.
func (h *rxHandler) Step(t *smp.Task, f ether.Frame) bool {
	s := h.s
	cfg := &s.Node.Cfg
	for {
		switch h.pc {
		case hStart:
			if !h.route(f) {
				return true
			}
			h.pc = hLocked
			if t.Acquire(s.rxLock) {
				return false
			}
		case hLocked:
			switch {
			case !h.rcv.Classify(h.pkt):
				h.pc = hUnlock
			case h.ctrl:
				req, ok := h.pkt.Data.(pullReqMsg)
				if !ok {
					panic(fmt.Sprintf("pushpull: control lane carried %T", h.pkt.Data))
				}
				h.req, h.pc = req, pullStart
			default:
				frag, ok := h.pkt.Data.(fragMsg)
				if !ok {
					panic(fmt.Sprintf("pushpull: data lane carried %T", h.pkt.Data))
				}
				h.frag, h.pc = frag, fragStart
			}
		case hCommit:
			h.rcv.Commit(h.ok)
			h.pc = hUnlock
		case hUnlock:
			s.rxLock.Release()
			*h = rxHandler{s: s, rail: h.rail}
			return true

		// An in-order data fragment (eager or pull lane). Delivery fails
		// only when the fragment cannot be buffered, which go-back-N
		// treats as loss, stalling only this channel's stream.
		case fragStart:
			h.ep = s.eps[h.frag.ch.To.Proc]
			if h.ep == nil {
				panic(fmt.Sprintf("pushpull: fragment for missing endpoint %v", h.frag.ch.To))
			}
			if h.m = h.ep.findInbound(h.frag.ch, h.frag.msgID); h.m != nil {
				h.pc = fragFound
				continue
			}
			h.pc = fragNew
			if t.Exec(cfg.QueueOp) {
				return false
			}
		case fragNew:
			f := h.frag
			h.m = &inboundMsg{
				ch:        f.ch,
				msgID:     f.msgID,
				tag:       f.tag,
				laneSeq:   f.laneSeq,
				total:     f.total,
				pushTotal: f.pushTotal,
				buf:       make([]byte, f.total),
			}
			h.ep.addInbound(h.m)
			h.pc = fragFound
		case fragFound:
			if h.m.op == nil {
				if !s.parkFrag(h.ep, h.m, h.frag) {
					h.ok, h.pc = false, hCommit
					continue
				}
				h.pc = fragParked
				if t.Exec(cfg.QueueOp) {
					return false
				}
				continue
			}
			if f := h.frag; len(f.data) > 0 {
				s.chanEvent(trace.KindDirect, f.ch, f.msgID, "frag [%d:%d) direct to destination on cpu%d", f.offset, f.offset+len(f.data), t.CPU.ID)
			}
			// Receive registered: copy straight into the destination
			// buffer through its zero buffer (one copy). The
			// destination's translation may still be in flight when
			// masked: wait for it.
			h.pc = fragCopy
			if t.SleepUntil(h.m.op.zbReadyAt) {
				return false
			}
		case fragCopy:
			h.pc = fragCopied
			if t.Copy(len(h.frag.data), false) {
				return false
			}
		case fragCopied:
			if n := len(h.frag.data); n > 0 {
				copy(h.m.buf[h.frag.offset:], h.frag.data)
				h.m.received += n
			}
			// Push-and-Acknowledge Overlapping: the handler answers the
			// first pushed fragment with the pull request immediately,
			// while later pushed fragments are still on the wire.
			h.pc = fragDone
			if h.ep.claimPull(h.m) {
				h.pc = fragPullTrigger
				if t.Exec(cfg.QueueOp) {
					return false
				}
			}
		case fragPullTrigger:
			h.pc = fragPullPost
			if t.Exec(s.nicKernelTrigger()) {
				return false
			}
		case fragPullPost:
			s.postPullReq(h.m)
			h.pc = fragDone
		case fragDone:
			h.ok, h.pc = true, hCommit
			if h.m.received == h.m.total && h.ep.markComplete(h.m) && h.m.op != nil {
				h.pc = fragSignal
				if t.Exec(t.SignalCost(s.Node.CPUs[h.ep.CPU])) {
					return false
				}
			}
		case fragSignal:
			h.m.wakeRecv()
			h.ok, h.pc = true, hCommit
		case fragParked:
			h.m.wakeRecv()
			h.ok, h.pc = true, hCommit

		// A pull request, at the send side: grant it and transmit the
		// rest of the message from the send queue (arrow 1b.2).
		case pullStart:
			h.ep = s.eps[h.req.ch.From.Proc]
			if h.ep == nil {
				panic(fmt.Sprintf("pushpull: pull request for missing endpoint %v", h.req.ch.From))
			}
			h.op = h.ep.sendOps[sendKey{h.req.ch, h.req.msgID}]
			if h.op == nil || h.op.served {
				// A duplicate pull request after a go-back-N
				// retransmission.
				h.ok, h.pc = true, hCommit
				continue
			}
			h.pc = pullQueued
			if t.Exec(cfg.QueueOp) {
				return false
			}
		case pullQueued:
			if s.Adapter != nil {
				redo := 0
				for _, r := range h.req.redo {
					redo += r.N
				}
				s.Adapter.OnPullRequest(h.req.ch, redo, t.Now().Sub(h.op.start))
			}
			if h.op.done != nil {
				// Three-phase: the CTS wakes the parked sender, which
				// transmits from its own thread; the handler only
				// delivers the grant.
				h.op.granted = true
				h.op.done.Broadcast()
				h.ok, h.pc = true, hCommit
				continue
			}
			// The pull data DMAs from the user source buffer: its
			// translation must have finished (masking scheduled it
			// behind the push wire time, which is almost always enough,
			// but never break causality).
			h.pc = pullGrant
			if t.SleepUntil(h.op.srcReadyAt) {
				return false
			}
		case pullGrant:
			s.chanEvent(trace.KindPullGrant, h.req.ch, h.req.msgID, "pull granted, transmitting [%d:%d) + %d redo ranges", h.op.pushed, len(h.op.data), len(h.req.redo))
			h.sess = s.outSession(h.req.ch)
			h.rng = -1
			h.pc = pullFrag
		case pullFrag:
			if h.off >= h.end {
				if h.rng == len(h.req.redo) {
					s.finishSend(h.ep, h.op)
					h.ok, h.pc = true, hCommit
					continue
				}
				h.rng++
				r := byteRange{Off: h.op.pushed, N: len(h.op.data) - h.op.pushed}
				if h.rng < len(h.req.redo) {
					r = h.req.redo[h.rng]
				}
				h.off, h.end = r.Off, r.Off+r.N
				continue
			}
			h.pc = pullSend
			if t.Exec(s.nicKernelTrigger()) {
				return false
			}
		case pullSend:
			n := min(h.end-h.off, MaxFragData)
			frag := fragMsg{
				ch:        h.req.ch,
				msgID:     h.req.msgID,
				tag:       h.op.tag,
				offset:    h.off,
				data:      h.op.data[h.off : h.off+n],
				total:     len(h.op.data),
				pushTotal: h.op.pushed,
				pull:      true,
			}
			h.sess.send(lanePull, frag.wireBytes(), frag)
			h.off += n
			h.pc = pullFrag
		}
	}
}

// route checks a frame and settles what needs no handler lock. A frame
// from an unknown peer is dropped. A link ack touches only a go-back-N
// sender and never waits, so it bypasses the lock like a real driver's
// ack fast path. route reports whether the frame carries a packet to
// deliver, which it then holds in h.
func (h *rxHandler) route(f ether.Frame) bool {
	s := h.s
	if !s.peers[f.Src] {
		s.event(trace.KindError, "frame from unknown peer %d dropped", f.Src)
		return false
	}
	wm, ok := f.Payload.(wireMsg)
	if !ok {
		panic(fmt.Sprintf("pushpull: node %d received foreign payload %T", s.Node.ID, f.Payload))
	}
	if wm.isAck {
		s.laneSession(wm, false).rails[h.rail].snd[wm.lane].OnAck(wm.ack.ack)
		return false
	}
	h.pkt = wm.pkt.(gbn.Packet)
	h.rcv = s.laneSession(wm, true).rails[h.rail].rcv[wm.lane]
	h.ctrl = wm.lane == laneCtrl
	return true
}

// laneSession returns the session a frame belongs to. Eager/pull lane
// traffic arrives at the channel's To node (its in session); control
// traffic arrives at the From node (out session). Acks (recvSide false)
// travel the opposite way and land on the transmitting half.
func (s *Stack) laneSession(wm wireMsg, recvSide bool) *chanSession {
	if wm.lane.toSender() == recvSide {
		return s.outSession(wm.ch)
	}
	return s.inSession(wm.ch)
}
