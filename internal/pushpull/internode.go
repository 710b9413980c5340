package pushpull

import (
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// sendInter is the internode send path. With the user-level trigger the
// pushed fragments are PIO-copied into the NIC's outgoing FIFO from user
// space — no system call, no translation — and the source translation is
// either masked (scheduled after transmission starts, §4.3) or paid up
// front. Push-and-Acknowledge Overlapping (§4.4) splits the pushed bytes
// into BTP(1)+BTP(2) so the receiver's pull request overlaps the second
// fragment's wire time. Every fragment rides the channel's own data-lane
// go-back-N session.
func (s *Stack) sendInter(t *smp.Thread, ep *Endpoint, ch ChannelID, msgID uint64, addr vmAddr, data []byte, so SendOptions, laneSeq uint64) {
	if s.Opts.Mode == ThreePhase {
		s.sendInterThreePhase(t, ep, ch, msgID, addr, data, so, laneSeq)
		return
	}
	cfg := s.Node.Cfg
	opts := s.Opts
	total := len(data)
	btp := opts.interBTP(total)
	if so.BTP >= 0 && opts.Mode == PushPull {
		btp = so.BTP
	} else if s.Adapter != nil && opts.Mode == PushPull {
		btp = s.Adapter.BTP(ch, total)
	}
	if btp < 0 {
		btp = 0
	}
	if btp > total {
		btp = total
	}
	sess := s.outSession(ch)

	t.Exec(cfg.CallOverhead)
	if !opts.UserTrigger {
		t.Exec(cfg.SyscallEntry)
	}
	t.Exec(cfg.QueueOp) // register the send operation
	s.chanEvent(trace.KindSend, ch, msgID, "send %dB internode, push %dB", total, btp)

	op := &sendOp{ch: ch, msgID: msgID, tag: so.Tag, addr: addr, data: data, pushed: btp, start: t.Now()}
	ep.sendOps[sendKey{ch, msgID}] = op

	translated := total == 0 // nothing to translate for an empty message
	translate := func() {
		translated = true
		cost := ep.Space.TranslateCost(addr, total)
		op.srcReadyAt = t.Now().Add(cost)
		t.Exec(cost)
	}
	if !opts.MaskTranslation && total > 0 {
		// Unmasked: find out physical addresses before any transmission.
		translate()
	}

	// Push phase. Fragment the pushed bytes: BTP(1)+BTP(2) when
	// overlapping, one run otherwise; each run is further split at the
	// MTU. Push-All PIO-copies only its first fragment; the rest DMA
	// from host memory and therefore need the translation first.
	runs := pushRuns(opts, btp, total)
	pioBudget := btp
	if opts.Mode == PushAll {
		if pioBudget > MaxFragData {
			pioBudget = MaxFragData
		}
	}
	off := 0
	for _, run := range runs {
		if run == 0 {
			// Empty first run: transmit a bare announcement so the pull
			// request is triggered as early as possible.
			ann := fragMsg{ch: ch, msgID: msgID, tag: so.Tag, laneSeq: laneSeq, total: total, pushTotal: btp, preloaded: true}
			if opts.UserTrigger {
				t.Exec(s.nicTrigger())
			} else {
				t.Exec(s.nicKernelTrigger())
			}
			sess.send(laneEager, ann.wireBytes(), ann)
			continue
		}
		for run > 0 {
			n := run
			if n > MaxFragData {
				n = MaxFragData
			}
			frag := fragMsg{
				ch:        ch,
				msgID:     msgID,
				tag:       so.Tag,
				laneSeq:   laneSeq,
				offset:    off,
				data:      data[off : off+n],
				total:     total,
				pushTotal: btp,
			}
			if opts.UserTrigger && off < pioBudget {
				// Copy into the mapped FIFO and ring the doorbell from
				// user space.
				t.PIO(frag.wireBytes())
				t.Exec(s.nicTrigger())
				frag.preloaded = true
			} else if opts.UserTrigger {
				// Descriptor queued through the mapped ring (Push-All's
				// later fragments DMA from host memory).
				t.Exec(s.nicTrigger())
			} else {
				// Kernel driver transmit path: per-frame descriptor and
				// ring work the user-level trigger eliminates.
				t.Exec(s.nicKernelTrigger())
			}
			if opts.Mode == PushAll && off+n > pioBudget && !translated {
				// Push-All cannot push everything through the FIFO: the
				// remaining fragments DMA from the user buffer, so the
				// translation must happen now, hidden only by the first
				// fragment's wire time.
				translate()
			}
			format := "push frag [%d:%d) preloaded=false"
			if frag.preloaded {
				format = "push frag [%d:%d) preloaded=true"
			}
			s.chanEvent(trace.KindPush, ch, msgID, format, frag.offset, frag.offset+n)
			sess.send(laneEager, frag.wireBytes(), frag)
			off += n
			run -= n
		}
	}
	if btp == 0 {
		// Pushing nothing (Push-Zero, a zero-length message, or Push-Pull
		// swept down to BTP=0): the push phase transfers no data, but the
		// announcement frame still occupies the wire (the paper's point
		// about Push-Zero wasting bandwidth in the early-receiver test).
		ann := fragMsg{ch: ch, msgID: msgID, tag: so.Tag, laneSeq: laneSeq, total: total, pushTotal: 0, preloaded: true}
		if opts.UserTrigger {
			t.Exec(s.nicTrigger())
		} else {
			t.Exec(s.nicKernelTrigger())
		}
		sess.send(laneEager, ann.wireBytes(), ann)
	}

	if !translated {
		// Masked: translation happens after transmission was initiated,
		// overlapping the wire time of the pushed fragments.
		translate()
	}

	if btp == total {
		// Fully pushed (or zero-length): nothing to pull; the send op is
		// complete.
		s.finishSend(ep, op)
	}
	if !opts.UserTrigger {
		t.Exec(cfg.SyscallExit)
	}
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

// sendPullReq transmits the acknowledgement-cum-pull-request for m from
// the receiving thread, on the channel's own control lane. The receive
// handler does the same from a task (rxHandler).
func (s *Stack) sendPullReq(t *smp.Thread, m *inboundMsg) {
	t.Exec(s.Node.Cfg.QueueOp)
	t.Exec(s.nicKernelTrigger())
	s.postPullReq(m)
}

// postPullReq sends m's pull request once its costs are paid.
func (s *Stack) postPullReq(m *inboundMsg) {
	s.chanEvent(trace.KindPullReq, m.ch, m.msgID, "pull request (ack) for [%d:%d), %d dropped ranges", m.pushTotal, m.total, len(m.dropped))
	req := pullReqMsg{ch: m.ch, msgID: m.msgID, fromOffset: m.pushTotal, redo: m.dropped}
	s.inSession(m.ch).send(laneCtrl, req.wireBytes(), req)
}
