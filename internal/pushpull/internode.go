package pushpull

import (
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// stepInter is the internode send path. With the user-level trigger the
// pushed fragments are PIO-copied into the NIC's outgoing FIFO from user
// space — no system call, no translation — and the source translation is
// either masked (scheduled after transmission starts, §4.3) or paid up
// front. Push-and-Acknowledge Overlapping (§4.4) splits the pushed bytes
// into BTP(1)+BTP(2) so the receiver's pull request overlaps the second
// fragment's wire time. Every fragment rides the channel's own data-lane
// go-back-N session. It reports whether the send parked; at the path's
// end it hands pc back to step.
func (sd *sender) stepInter(x smp.Runner) bool {
	s := sd.ep.stack
	opts := &s.Opts
	total := len(sd.data)
	for {
		switch sd.pc {
		case sInterRegister:
			s.chanEvent(trace.KindSend, sd.ch, sd.msgID, "send %dB internode, push %dB", total, sd.btp)
			sd.register(&sendOp{ch: sd.ch, msgID: sd.msgID, tag: sd.o.Tag, addr: sd.addr, data: sd.data, pushed: sd.btp, start: x.Now()})
			// Push phase. Fragment the pushed bytes: BTP(1)+BTP(2) when
			// overlapping, one run otherwise; each run is further split
			// at the MTU. Push-All PIO-copies only its first fragment;
			// the rest DMA from host memory and therefore need the
			// translation first.
			sd.nruns = copy(sd.runs[:], pushRuns(*opts, sd.btp, total))
			sd.pio = sd.btp
			if opts.Mode == PushAll {
				sd.pio = min(sd.pio, MaxFragData)
			}
			sd.translated = total == 0 // nothing to translate for an empty message
			sd.pc = sPushRun
			if !opts.MaskTranslation && total > 0 && sd.translate(x) {
				// Unmasked: find out physical addresses before any
				// transmission.
				return true
			}
			fallthrough
		case sPushRun:
			if sd.run == sd.nruns {
				sd.pc = sPushTail
				continue
			}
			sd.left = sd.runs[sd.run]
			sd.run++
			if sd.left == 0 {
				// Empty first run: transmit a bare announcement so the
				// pull request is triggered as early as possible.
				sd.frag = fragMsg{ch: sd.ch, msgID: sd.msgID, tag: sd.o.Tag, laneSeq: sd.laneSeq, total: total, pushTotal: sd.btp, preloaded: true}
				sd.pc = sPushAnn
				if x.Exec(sd.trigger()) {
					return true
				}
				continue
			}
			sd.pc = sPushFrag
			fallthrough
		case sPushFrag:
			if sd.left == 0 {
				sd.pc = sPushRun
				continue
			}
			n := min(sd.left, MaxFragData)
			sd.frag = fragMsg{
				ch:        sd.ch,
				msgID:     sd.msgID,
				tag:       sd.o.Tag,
				laneSeq:   sd.laneSeq,
				offset:    sd.off,
				data:      sd.data[sd.off : sd.off+n],
				total:     total,
				pushTotal: sd.btp,
			}
			if !opts.UserTrigger || sd.off >= sd.pio {
				// A descriptor queued through the mapped ring
				// (Push-All's later fragments DMA from host memory), or
				// the kernel's transmit path: per-frame descriptor and
				// ring work the user-level trigger eliminates.
				sd.pc = sPushTranslate
				if x.Exec(sd.trigger()) {
					return true
				}
				continue
			}
			// Copy into the mapped FIFO and ring the doorbell from user
			// space.
			sd.frag.preloaded = true
			sd.pc = sPushDoorbell
			if x.PIO(sd.frag.wireBytes()) {
				return true
			}
			fallthrough
		case sPushDoorbell:
			sd.pc = sPushTranslate
			if x.Exec(s.nicTrigger()) {
				return true
			}
			fallthrough
		case sPushTranslate:
			// Push-All cannot push everything through the FIFO: the
			// remaining fragments DMA from the user buffer, so the
			// translation must happen now, hidden only by the first
			// fragment's wire time.
			sd.pc = sPushSend
			if opts.Mode == PushAll && sd.off+len(sd.frag.data) > sd.pio && !sd.translated && sd.translate(x) {
				return true
			}
			fallthrough
		case sPushSend:
			f := &sd.frag
			n := len(f.data)
			format := "push frag [%d:%d) preloaded=false"
			if f.preloaded {
				format = "push frag [%d:%d) preloaded=true"
			}
			s.chanEvent(trace.KindPush, f.ch, f.msgID, format, f.offset, f.offset+n)
			sd.sess.send(laneEager, f.wireBytes(), *f)
			sd.off += n
			sd.left -= n
			sd.pc = sPushFrag
		case sPushAnn:
			sd.sess.send(laneEager, sd.frag.wireBytes(), sd.frag)
			sd.pc = sPushRun
		case sPushTail:
			if sd.btp != 0 {
				sd.pc = sInterTranslate
				continue
			}
			// Pushing nothing (Push-Zero, a zero-length message, or
			// Push-Pull swept down to BTP=0): the push phase transfers
			// no data, but the announcement frame still occupies the
			// wire (the paper's point about Push-Zero wasting bandwidth
			// in the early-receiver test).
			sd.frag = fragMsg{ch: sd.ch, msgID: sd.msgID, tag: sd.o.Tag, laneSeq: sd.laneSeq, total: total, pushTotal: 0, preloaded: true}
			sd.pc = sPushTailAnn
			if x.Exec(sd.trigger()) {
				return true
			}
			fallthrough
		case sPushTailAnn:
			sd.sess.send(laneEager, sd.frag.wireBytes(), sd.frag)
			sd.pc = sInterTranslate
			fallthrough
		case sInterTranslate:
			// Masked: translation happens after transmission was
			// initiated, overlapping the wire time of the pushed
			// fragments.
			sd.pc = sInterFinish
			if !sd.translated && sd.translate(x) {
				return true
			}
			fallthrough
		case sInterFinish:
			if sd.btp == total {
				// Fully pushed (or zero-length): nothing to pull; the
				// send op is complete.
				s.finishSend(sd.ep, sd.op)
			}
			sd.pc = sDone
			if !opts.UserTrigger {
				sd.pc = sExit
			}
			return false
		}
	}
}

// trigger is the cost of handing one frame to the NIC on the send path:
// the user-level doorbell, or the kernel's transmit path.
func (sd *sender) trigger() sim.Duration {
	if sd.ep.stack.Opts.UserTrigger {
		return sd.ep.stack.nicTrigger()
	}
	return sd.ep.stack.nicKernelTrigger()
}

// translate pays the source translation. The pull phase DMAs from the
// source buffer, so it may not start before the translation is done.
func (sd *sender) translate(x smp.Runner) bool {
	sd.translated = true
	cost := sd.ep.Space.TranslateCost(sd.addr, len(sd.data))
	sd.op.srcReadyAt = x.Now().Add(cost)
	return x.Exec(cost)
}

// pushRuns reports the eager transmission runs for btp pushed bytes of a
// total-byte message. The BTP(1)/BTP(2) split only matters when a pull
// phase will follow; a message that fits entirely in the push goes out in
// one run, which is why the paper's four optimization variants coincide
// below 760 bytes (Fig. 4).
func pushRuns(opts Options, btp, total int) []int {
	if btp <= 0 {
		return nil
	}
	if opts.Mode == PushPull && opts.OverlapAck && btp < total {
		b1 := opts.BTP1
		if b1 > btp {
			b1 = btp
		}
		if b2 := btp - b1; b2 > 0 {
			// A zero-byte first run still emits an (empty) announcement
			// fragment, so the receiver's acknowledgement can overlap the
			// second fragment even when BTP(1)=0 — the configuration of
			// the paper's §5.2 BTP(2) sweep.
			return []int{b1, b2}
		}
		return []int{b1}
	}
	return []int{btp}
}

// parkFrag parks an in-order data fragment that arrived before its
// receive in the pushed buffer. Fragments carrying data occupy one slot
// each; empty announcements are pure metadata. It reports false when the
// fragment must be refused, which the go-back-N layer treats as loss,
// stalling only this channel's stream.
func (s *Stack) parkFrag(ep *Endpoint, m *inboundMsg, f fragMsg) bool {
	if len(f.data) == 0 {
		return true
	}
	switch {
	case ep.ring.tryReserveSlot():
		m.slots++
		m.buffered = append(m.buffered, f)
		s.chanEvent(trace.KindPark, f.ch, f.msgID, "frag [%d:%d) parked in pushed buffer (slot %d/%d)", f.offset, f.offset+len(f.data), ep.ring.slotsUsed(), ep.ring.slots)
	case !m.pullSent && f.pushTotal < f.total:
		// Buffer full, but a pull phase is still to come: discard this
		// optimistic push and let the pull request re-fetch the range.
		// Accepting (and acking) the fragment keeps the in-order stream
		// moving — refusing it would stall pull traffic of earlier
		// messages behind the retransmission.
		m.dropped = append(m.dropped, byteRange{Off: f.offset, N: len(f.data)})
		s.discardedBytes += uint64(len(f.data))
		s.chanEvent(trace.KindDiscard, f.ch, f.msgID, "frag [%d:%d) DISCARDED: pushed buffer full, pull will re-fetch", f.offset, f.offset+len(f.data))
	default:
		// Fully eager message (Push-All or a short fully-pushed
		// transfer): no pull phase exists to re-fetch the data, so the
		// fragment must be refused and recovered by go-back-N — the
		// paper's Fig. 6 collapse, now confined to this channel's eager
		// lane. (The pullSent guard above is pure defense: match-time
		// capacity validation means a receive never detaches after
		// starting a pull, so an unbound message with the pull request
		// already out cannot occur — but if it ever did, a discard here
		// would be an unrecoverable hole, while refusal retransmits.)
		s.chanEvent(trace.KindRefuse, f.ch, f.msgID, "frag [%d:%d) REFUSED: pushed buffer full", f.offset, f.offset+len(f.data))
		return false
	}
	return true
}

// postPullReq sends m's acknowledgement-cum-pull-request on the
// channel's own control lane, once the receive side has paid its costs
// (a QueueOp and a kernel NIC trigger, on the receive or its handler).
func (s *Stack) postPullReq(m *inboundMsg) {
	s.chanEvent(trace.KindPullReq, m.ch, m.msgID, "pull request (ack) for [%d:%d), %d dropped ranges", m.pushTotal, m.total, len(m.dropped))
	req := pullReqMsg{ch: m.ch, msgID: m.msgID, fromOffset: m.pushTotal, redo: m.dropped}
	s.inSession(m.ch).send(laneCtrl, req.wireBytes(), req)
}
