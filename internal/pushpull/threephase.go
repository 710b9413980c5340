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
// transmit the message, from its own context. None of Push-Pull's
// optimizations apply — the mode exists as the historical baseline the
// paper's short-message latency claims are measured against.
//
// The receive side is the ordinary Push-Pull receive path: the RTS is an
// announcement fragment with zero pushed bytes, and the CTS is the
// acknowledgement-cum-pull-request. Only the send side differs, which is
// exactly the protocols' real relationship — three-phase is Push-Zero
// with the sender synchronously parked on the handshake.

// stepThreePhase is the internode three-phase send: translate, RTS,
// park until CTS, transmit everything, return. It reports whether the
// send parked; at the path's end it hands pc back to step.
func (sd *sender) stepThreePhase(x smp.Runner) bool {
	s := sd.ep.stack
	cfg := &s.Node.Cfg
	total := len(sd.data)
	for {
		switch sd.pc {
		case sThreeRegister:
			s.chanEvent(trace.KindSend, sd.ch, sd.msgID, "send %dB three-phase", total)
			sd.register(&sendOp{ch: sd.ch, msgID: sd.msgID, tag: sd.o.Tag, addr: sd.addr, data: sd.data})
			// Phase 1: request-to-send (a bare announcement, zero pushed
			// bytes).
			sd.frag = fragMsg{ch: sd.ch, msgID: sd.msgID, tag: sd.o.Tag, laneSeq: sd.laneSeq, total: total, pushTotal: 0, preloaded: true}
			if total == 0 {
				// Nothing to hand over: the announcement alone completes
				// the transfer, so there is no CTS to park on.
				sd.pc = sThreeRTS
				if x.Exec(s.nicKernelTrigger()) {
					return true
				}
				continue
			}
			sd.op.done = sim.NewCond(s.Node.Engine)
			// Classical protocol: find out physical addresses before
			// transmitting anything. The translation sits on the
			// critical path.
			sd.pc = sThreeTranslated
			if x.Exec(sd.ep.Space.TranslateCost(sd.addr, total)) {
				return true
			}
			fallthrough
		case sThreeTranslated:
			sd.op.srcReadyAt = x.Now()
			sd.pc = sThreeRTS
			if x.Exec(s.nicKernelTrigger()) {
				return true
			}
			fallthrough
		case sThreeRTS:
			sd.sess.send(laneEager, sd.frag.wireBytes(), sd.frag)
			if total == 0 {
				s.finishSend(sd.ep, sd.op)
				sd.pc = sExit
				return false
			}
			sd.pc = sThreeWait
			fallthrough
		case sThreeWait:
			// Phase 2: park until the receiver's clear-to-send arrives —
			// or the peer is declared unreachable, which aborts the
			// handshake.
			if sd.op.granted || sd.op.err != nil {
				sd.pc = sThreeGranted
				continue
			}
			sd.pc = sThreeWoken
			if x.Wait(sd.op.done) {
				return true
			}
			fallthrough
		case sThreeWoken:
			sd.pc = sThreeWait
			if x.Exec(cfg.WakeLatency) {
				return true
			}
		case sThreeGranted:
			if err := sd.op.err; err != nil {
				s.Rec.Recordf(s.Node.Engine.Now(), s.Node.ID, trace.KindError, "%v#%d three-phase send aborted: %v", sd.ch, sd.msgID, err)
				s.finishSend(sd.ep, sd.op)
				sd.pc = sExit
				return false
			}
			// Phase 3: transmit the whole message from the send
			// process's own context.
			s.chanEvent(trace.KindPullGrant, sd.ch, sd.msgID, "CTS received, transmitting %dB", total)
			sd.pc = sThreeFrag
			fallthrough
		case sThreeFrag:
			if sd.off >= total {
				s.finishSend(sd.ep, sd.op)
				sd.pc = sExit
				return false
			}
			n := min(total-sd.off, MaxFragData)
			sd.frag = fragMsg{
				ch:        sd.ch,
				msgID:     sd.msgID,
				tag:       sd.o.Tag,
				offset:    sd.off,
				data:      sd.data[sd.off : sd.off+n],
				total:     total,
				pushTotal: 0,
				pull:      true,
			}
			sd.pc = sThreeSend
			if x.Exec(s.nicKernelTrigger()) {
				return true
			}
			fallthrough
		case sThreeSend:
			sd.sess.send(lanePull, sd.frag.wireBytes(), sd.frag)
			sd.off += len(sd.frag.data)
			sd.pc = sThreeFrag
		}
	}
}
