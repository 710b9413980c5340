package pushpull

import (
	"fmt"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// sendIntra is the intranode send path (paper §5.1). The sender's kernel
// context can read the source buffer through the user mappings and write
// either the kernel pushed buffer or — via the receiver's registered zero
// buffer — the destination user buffer directly, so the push phase needs
// no address translation. Only the pull kernel thread, which runs in a
// foreign context, must translate the source.
func (s *Stack) sendIntra(t *smp.Thread, ep *Endpoint, ch ChannelID, msgID uint64, addr vmAddr, data []byte, so SendOptions, laneSeq uint64) {
	cfg := s.Node.Cfg
	total := len(data)
	btp := s.Opts.intraBTP(total)

	t.Exec(cfg.CallOverhead)
	t.Exec(cfg.SyscallEntry)
	t.Exec(cfg.QueueOp) // register the send operation
	s.chanEvent(trace.KindSend, ch, msgID, "send %dB intranode, push %dB", total, btp)

	op := &sendOp{ch: ch, msgID: msgID, tag: so.Tag, addr: addr, data: data, pushed: btp}
	op.srcReadyAt = t.Now() // intranode: pull thread translates on its own
	if s.Opts.Mode == ThreePhase && btp < total {
		// Three-phase is synchronous: the sender parks until the pull
		// kernel thread has fully served the transfer. A fully pushed
		// (zero-length) message has nothing to pull and never parks.
		op.done = sim.NewCond(s.Node.Engine)
	}
	ep.sendOps[sendKey{ch, msgID}] = op

	peer := s.eps[ch.To.Proc]
	if peer == nil {
		panic(fmt.Sprintf("pushpull: intranode send to missing endpoint %v", ch.To))
	}

	m := &inboundMsg{
		ch:        ch,
		msgID:     msgID,
		tag:       so.Tag,
		laneSeq:   laneSeq,
		total:     total,
		pushTotal: btp,
		buf:       make([]byte, total),
	}

	if rop := peer.intraDirectRecv(m); rop != nil && !s.Opts.DisableZeroBuffer {
		// Receive already registered (destination zero buffer known):
		// push straight into the destination buffer — one copy.
		peer.bind(rop, m)
		peer.inbound = append(peer.inbound, m)
		peer.settle(rop, m) // the lane advanced: later parked messages may now match
		if btp > 0 {
			t.Copy(btp, false)
			copy(m.buf[:btp], data[:btp])
			m.received += btp
			s.chanEvent(trace.KindDirect, ch, msgID, "pushed %dB direct to destination", btp)
		}
		if m.pullRemainder() > 0 {
			// The send party starts the pull phase itself: the receive
			// information is already registered (arrow 3b of Figure 1).
			peer.maybeStartPull(t, m)
		} else {
			s.finishSend(ep, op)
			peer.complete(t, m)
		}
	} else {
		// Receive not yet posted: stage the pushed bytes in the pushed
		// buffer (arrow 2b.1). The sender blocks while the buffer is
		// full — intranode pushes never overflow, they throttle.
		peer.addInbound(m)
		if btp > 0 {
			peer.ring.reserveBytes(t.P, btp)
			m.intraBuf = btp
			t.Copy(btp, false)
			frag := fragMsg{ch: ch, msgID: msgID, offset: 0, data: data[:btp], total: total, pushTotal: btp}
			m.buffered = append(m.buffered, frag)
			s.chanEvent(trace.KindPark, ch, msgID, "pushed %dB to pushed buffer (%dB held)", btp, peer.ring.bytesUsed())
		}
		if btp == total {
			s.finishSend(ep, op)
		}
		// A receive registered while we were copying: wake it to drain
		// the staged bytes and start the pull.
		m.wakeRecv()
	}

	for op.done != nil && !op.served {
		op.done.Wait(t.P)
		t.Exec(cfg.WakeLatency)
	}
	t.Exec(cfg.SyscallExit)
}

// dispatchIntraPull hands the pull phase to a kernel thread on the least
// loaded processor (the §4.1 parallelism claim: the pull overlaps with
// whatever the application CPUs are doing). Options.PullLocal instead
// pins the pull onto the receiving process's own CPU — the ablation the
// paper argues against.
func (s *Stack) dispatchIntraPull(m *inboundMsg) {
	cpu := s.Node.LeastLoadedCPU()
	if s.Opts.PullLocal {
		cpu = s.Node.CPUs[s.eps[m.ch.To.Proc].CPU]
	}
	s.chanEvent(trace.KindPullDispatch, m.ch, m.msgID, "pull dispatched to cpu%d", cpu.ID)
	s.Node.SpawnKernel("pull", cpu, func(t *smp.Thread) {
		s.intraPull(t, m)
	})
}

// intraPull runs in the pull kernel thread: translate the unsent part of
// the source buffer (foreign address space), move it straight into the
// destination with one copy, and complete the receive.
func (s *Stack) intraPull(t *smp.Thread, m *inboundMsg) {
	cfg := s.Node.Cfg
	src := s.eps[m.ch.From.Proc]
	key := sendKey{m.ch, m.msgID}
	op := src.sendOps[key]
	if op == nil {
		panic(fmt.Sprintf("pushpull: pull with no send op for %v#%d", m.ch, m.msgID))
	}
	rem := m.total - op.pushed
	t.Exec(cfg.QueueOp)
	// The pull thread walks the sender's page tables for the remainder.
	t.Exec(src.Space.TranslateCost(op.addr+vmAddr(op.pushed), rem))
	// One copy, source user buffer to destination user buffer, through
	// the kernel direct map. Without the zero buffer (§4.2 ablation) the
	// data is staged through a shared kernel segment and copied twice.
	t.Copy(rem, false)
	if s.Opts.DisableZeroBuffer {
		t.Copy(rem, false)
	}
	copy(m.buf[op.pushed:], op.data[op.pushed:])
	m.received += rem
	s.finishSend(src, op)
	dst := s.eps[m.ch.To.Proc]
	t.Exec(cfg.QueueOp)
	dst.complete(t, m)
}

// finishSend retires a fully transmitted send operation, waking a
// synchronously parked (three-phase) sender if there is one.
func (s *Stack) finishSend(ep *Endpoint, op *sendOp) {
	op.served = true
	delete(ep.sendOps, sendKey{op.ch, op.msgID})
	if op.done != nil {
		op.done.Broadcast()
	}
}
