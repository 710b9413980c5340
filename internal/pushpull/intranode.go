package pushpull

import (
	"fmt"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// stepIntra is the intranode send path (paper §5.1). The sender's
// kernel context can read the source buffer through the user mappings
// and write either the kernel pushed buffer or — via the receiver's
// registered zero buffer — the destination user buffer directly, so the
// push phase needs no address translation. Only the pull kernel thread,
// which runs in a foreign context, must translate the source. It reports
// whether the send parked; at the path's end it hands pc back to step.
func (sd *sender) stepIntra(x smp.Runner) bool {
	s := sd.ep.stack
	cfg := &s.Node.Cfg
	total := len(sd.data)
	for {
		switch sd.pc {
		case sIntraRegister:
			ch, btp := sd.ch, sd.btp
			s.chanEvent(trace.KindSend, ch, sd.msgID, "send %dB intranode, push %dB", total, btp)
			op := &sendOp{ch: ch, msgID: sd.msgID, tag: sd.o.Tag, addr: sd.addr, data: sd.data, pushed: btp}
			op.srcReadyAt = x.Now() // intranode: pull thread translates on its own
			if s.Opts.Mode == ThreePhase && btp < total {
				// Three-phase is synchronous: the sender parks until the
				// pull kernel thread has fully served the transfer. A
				// fully pushed (zero-length) message has nothing to pull
				// and never parks.
				op.done = sim.NewCond(s.Node.Engine)
			}
			sd.register(op)
			sd.peer = s.eps[ch.To.Proc]
			if sd.peer == nil {
				panic(fmt.Sprintf("pushpull: intranode send to missing endpoint %v", ch.To))
			}
			m := &inboundMsg{
				ch:        ch,
				msgID:     sd.msgID,
				tag:       sd.o.Tag,
				laneSeq:   sd.laneSeq,
				total:     total,
				pushTotal: btp,
				buf:       make([]byte, total),
			}
			sd.m = m
			rop := sd.peer.intraDirectRecv(m)
			if rop == nil || s.Opts.DisableZeroBuffer {
				// Receive not yet posted: stage the pushed bytes in the
				// pushed buffer (arrow 2b.1).
				sd.peer.addInbound(m)
				sd.pc = sIntraStaged
				if btp > 0 {
					sd.pc = sIntraReserve
				}
				continue
			}
			// Receive already registered (destination zero buffer
			// known): push straight into the destination buffer — one
			// copy.
			sd.peer.bind(rop, m)
			sd.peer.inbound = append(sd.peer.inbound, m)
			sd.peer.settle(rop, m) // the lane advanced: later parked messages may now match
			sd.pc = sIntraDirect
			if x.Copy(btp, false) {
				return true
			}
			fallthrough
		case sIntraDirect:
			m := sd.m
			if btp := sd.btp; btp > 0 {
				copy(m.buf[:btp], sd.data[:btp])
				m.received += btp
				s.chanEvent(trace.KindDirect, sd.ch, sd.msgID, "pushed %dB direct to destination", btp)
			}
			sd.pc = sIntraWait
			if m.pullRemainder() > 0 {
				// The send party starts the pull phase itself: the
				// receive information is already registered (arrow 3b
				// of Figure 1).
				if sd.peer.claimPull(m) {
					s.dispatchIntraPull(m)
				}
				continue
			}
			s.finishSend(sd.ep, sd.op)
			if !sd.peer.markComplete(m) || m.op == nil {
				continue
			}
			sd.pc = sIntraSignal
			if x.Exec(x.SignalCost(s.Node.CPUs[sd.peer.CPU])) {
				return true
			}
			fallthrough
		case sIntraSignal:
			sd.m.wakeRecv()
			sd.pc = sIntraWait
			fallthrough
		case sIntraWait:
			if sd.op.done == nil || sd.op.served {
				sd.pc = sExit
				return false
			}
			sd.pc = sIntraWoken
			if x.Wait(sd.op.done) {
				return true
			}
			fallthrough
		case sIntraWoken:
			sd.pc = sIntraWait
			if x.Exec(cfg.WakeLatency) {
				return true
			}
		case sIntraReserve:
			// The sender blocks while the buffer is full — intranode
			// pushes never overflow, they throttle.
			ring := sd.peer.ring
			if !ring.tryReserveBytes(sd.btp) {
				if x.Wait(ring.space) {
					return true
				}
				continue
			}
			sd.m.intraBuf = sd.btp
			sd.pc = sIntraStage
			if x.Copy(sd.btp, false) {
				return true
			}
			fallthrough
		case sIntraStage:
			btp := sd.btp
			frag := fragMsg{ch: sd.ch, msgID: sd.msgID, offset: 0, data: sd.data[:btp], total: total, pushTotal: btp}
			sd.m.buffered = append(sd.m.buffered, frag)
			s.chanEvent(trace.KindPark, sd.ch, sd.msgID, "pushed %dB to pushed buffer (%dB held)", btp, sd.peer.ring.bytesUsed())
			sd.pc = sIntraStaged
			fallthrough
		case sIntraStaged:
			if sd.btp == total {
				s.finishSend(sd.ep, sd.op)
			}
			// A receive registered while we were copying: wake it to
			// drain the staged bytes and start the pull.
			sd.m.wakeRecv()
			sd.pc = sIntraWait
		}
	}
}

// dispatchIntraPull hands the pull phase to a kernel worker on the least
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
	var p *puller
	if n := len(s.freePullers); n > 0 {
		p = s.freePullers[n-1]
		s.freePullers[n-1] = nil
		s.freePullers = s.freePullers[:n-1]
	} else {
		p = &puller{s: s}
		p.taskFn = p.step
	}
	p.m = m
	s.Node.StartKernelTask(cpu, p.taskFn)
}

// puller is the pull kernel thread of one intranode message, on a kernel
// task: translate the unsent part of the source buffer (foreign address
// space), move it straight into the destination with one copy, and
// complete the receive.
type puller struct {
	s  *Stack
	m  *inboundMsg
	op *sendOp
	pc pullPC
	// taskFn is the bound step, made once per pooled record.
	taskFn func(t *smp.Task) bool
}

// pullPC is a puller's resume point.
type pullPC int8

const (
	pullBegin     pullPC = iota // find the send: QueueOp
	pullTranslate               // walk the sender's page tables
	pullCopy                    // one copy, source to destination
	pullCopyAgain               // without the zero buffer, a second copy
	pullCopied                  // data moved: retire the send, QueueOp
	pullComplete                // complete the message, signal cost
	pullWake                    // wake the receive
)

// step is the puller's task body.
func (p *puller) step(t *smp.Task) bool {
	s, m := p.s, p.m
	cfg := &s.Node.Cfg
	for {
		switch p.pc {
		case pullBegin:
			p.op = s.eps[m.ch.From.Proc].sendOps[sendKey{m.ch, m.msgID}]
			if p.op == nil {
				panic(fmt.Sprintf("pushpull: pull with no send op for %v#%d", m.ch, m.msgID))
			}
			p.pc = pullTranslate
			if t.Exec(cfg.QueueOp) {
				return false
			}
		case pullTranslate:
			// The pull thread walks the sender's page tables for the
			// remainder.
			src := s.eps[m.ch.From.Proc]
			p.pc = pullCopy
			if t.Exec(src.Space.TranslateCost(p.op.addr+vmAddr(p.op.pushed), p.rem())) {
				return false
			}
		case pullCopy:
			// One copy, source user buffer to destination user buffer,
			// through the kernel direct map. Without the zero buffer
			// (§4.2 ablation) the data is staged through a shared kernel
			// segment and copied twice.
			p.pc = pullCopyAgain
			if t.Copy(p.rem(), false) {
				return false
			}
		case pullCopyAgain:
			p.pc = pullCopied
			if s.Opts.DisableZeroBuffer && t.Copy(p.rem(), false) {
				return false
			}
		case pullCopied:
			copy(m.buf[p.op.pushed:], p.op.data[p.op.pushed:])
			m.received += p.rem()
			s.finishSend(s.eps[m.ch.From.Proc], p.op)
			p.pc = pullComplete
			if t.Exec(cfg.QueueOp) {
				return false
			}
		case pullComplete:
			dst := s.eps[m.ch.To.Proc]
			if !dst.markComplete(m) || m.op == nil {
				return p.release()
			}
			p.pc = pullWake
			if t.Exec(t.SignalCost(s.Node.CPUs[dst.CPU])) {
				return false
			}
		case pullWake:
			m.wakeRecv()
			return p.release()
		}
	}
}

// rem is the part of the message the pull moves.
func (p *puller) rem() int { return p.m.total - p.op.pushed }

// release recycles the puller once its body is done, and reports true.
func (p *puller) release() bool {
	s := p.s
	*p = puller{s: s, taskFn: p.taskFn}
	s.freePullers = append(s.freePullers, p)
	return true
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
