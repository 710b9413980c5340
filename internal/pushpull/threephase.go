package pushpull

import (
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// This file implements the classical three-phase protocol the paper's
// introduction positions Push-Pull against: "In three-phase protocol, the
// communication pattern guarantees buffers along the communication path
// are not overflowed ... The protocol, however, introduced a significant
// amount of overheads during the handshaking phase."
//
// The handshake is entirely on the critical path: the sender translates
// its source buffer, transmits a request-to-send carrying no data, and
// blocks until the receiver's clear-to-send arrives; only then does it
// transmit the message, from its own thread. None of Push-Pull's
// optimizations apply — the mode exists as the historical baseline the
// paper's short-message latency claims are measured against.
//
// The receive side is the ordinary Push-Pull receive path: the RTS is an
// announcement fragment with zero pushed bytes, and the CTS is the
// acknowledgement-cum-pull-request. Only the send side differs, which is
// exactly the protocols' real relationship — three-phase is Push-Zero
// with the sender synchronously parked on the handshake.

// sendInterThreePhase is the internode three-phase send: translate, RTS,
// park until CTS, transmit everything, return.
func (s *Stack) sendInterThreePhase(t *smp.Thread, ep *Endpoint, ch ChannelID, msgID uint64, addr vmAddr, data []byte, so SendOptions, laneSeq uint64) {
	cfg := s.Node.Cfg
	total := len(data)
	sess := s.outSession(ch)

	t.Exec(cfg.CallOverhead)
	t.Exec(cfg.SyscallEntry)
	t.Exec(cfg.QueueOp) // register the send operation
	s.chanEvent(trace.KindSend, ch, msgID, "send %dB three-phase", total)

	op := &sendOp{ch: ch, msgID: msgID, tag: so.Tag, addr: addr, data: data}
	ep.sendOps[sendKey{ch, msgID}] = op

	if total == 0 {
		// Nothing to hand over: the announcement alone completes the
		// transfer, so there is no CTS to park on.
		rts := fragMsg{ch: ch, msgID: msgID, tag: so.Tag, laneSeq: laneSeq, total: 0, pushTotal: 0, preloaded: true}
		t.Exec(s.nicKernelTrigger())
		sess.send(laneEager, rts.wireBytes(), rts)
		s.finishSend(ep, op)
		t.Exec(cfg.SyscallExit)
		return
	}
	op.done = sim.NewCond(s.Node.Engine)

	// Classical protocol: find out physical addresses before transmitting
	// anything. The translation sits on the critical path.
	cost := ep.Space.TranslateCost(addr, total)
	t.Exec(cost)
	op.srcReadyAt = t.Now()

	// Phase 1: request-to-send (a bare announcement, zero pushed bytes).
	rts := fragMsg{ch: ch, msgID: msgID, tag: so.Tag, laneSeq: laneSeq, total: total, pushTotal: 0, preloaded: true}
	t.Exec(s.nicKernelTrigger())
	sess.send(laneEager, rts.wireBytes(), rts)

	// Phase 2: park until the receiver's clear-to-send arrives — or the
	// peer is declared unreachable, which aborts the handshake.
	for !op.granted && op.err == nil {
		op.done.Wait(t.P)
		t.Exec(cfg.WakeLatency)
	}
	if op.err != nil {
		s.Rec.Recordf(s.Node.Engine.Now(), s.Node.ID, trace.KindError, "%v#%d three-phase send aborted: %v", ch, msgID, op.err)
		s.finishSend(ep, op)
		t.Exec(cfg.SyscallExit)
		return
	}

	// Phase 3: transmit the whole message from the send process's thread.
	s.chanEvent(trace.KindPullGrant, ch, msgID, "CTS received, transmitting %dB", total)
	for off := 0; off < total; {
		n := total - off
		if n > MaxFragData {
			n = MaxFragData
		}
		frag := fragMsg{
			ch:        ch,
			msgID:     msgID,
			tag:       so.Tag,
			offset:    off,
			data:      data[off : off+n],
			total:     total,
			pushTotal: 0,
			pull:      true,
		}
		t.Exec(s.nicKernelTrigger())
		sess.send(lanePull, frag.wireBytes(), frag)
		off += n
	}
	s.finishSend(ep, op)
	t.Exec(cfg.SyscallExit)
}
