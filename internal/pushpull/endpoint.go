package pushpull

import (
	"fmt"
	"sort"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
	"pushpull/internal/vm"
)

type sendKey struct {
	ch    ChannelID
	msgID uint64
}

// Endpoint is the communication interface of one process: its send queue,
// receive queue, buffer queue and pushed buffer, shared with the kernel
// (paper Figure 1).
//
// Send and Recv must be called from a thread bound to the endpoint's CPU;
// they charge that thread the protocol's CPU costs and block it in
// virtual time the way the real calls block.
type Endpoint struct {
	stack *Stack
	ID    ProcessID
	CPU   int
	Space *vm.AddressSpace

	ring    *pushedBuffer
	inbound []*inboundMsg // arrival-ordered incoming messages
	pending []*recvOp     // registered, unmatched receive operations
	freeOps []*recvOp     // completed receive ops, for reuse
	sendOps map[sendKey]*sendOp
	nextMsg map[ChannelID]uint64
	// nextLane is the next lane sequence number to assign per outgoing
	// (channel, tag) lane.
	nextLane map[laneKey]uint64
	// nextBind is the next lane sequence each (channel, tag) lane's
	// receives must bind, enforcing FIFO lane semantics even when
	// multi-rail striping makes later messages' fragments arrive first.
	nextBind map[laneKey]uint64

	sent, received uint64

	// apiHandle memoizes the public comm package's per-process handle,
	// so repeated comm.At/Attach calls share one channel cache and one
	// set of staging buffers. One engine is single-threaded; no lock.
	apiHandle any
}

// APIHandle returns the memoized public-API handle (see comm.Attach).
func (ep *Endpoint) APIHandle() any { return ep.apiHandle }

// SetAPIHandle stores the public-API handle for this endpoint.
func (ep *Endpoint) SetAPIHandle(h any) { ep.apiHandle = h }

// Stack returns the owning stack.
func (ep *Endpoint) Stack() *Stack { return ep.stack }

// Sent reports completed Send calls; Received reports completed Recvs.
func (ep *Endpoint) Sent() uint64     { return ep.sent }
func (ep *Endpoint) Received() uint64 { return ep.received }

// Alloc reserves a page-aligned buffer in the endpoint's address space.
func (ep *Endpoint) Alloc(n int) vm.VirtAddr { return ep.Space.Alloc(n) }

// Send transmits data (which the caller has placed at addr in the
// endpoint's space) to process to, with tag 0 and the protocol's
// configured BTP. See SendOpt for the tunable form.
func (ep *Endpoint) Send(t *smp.Thread, to ProcessID, addr vm.VirtAddr, data []byte) error {
	return ep.SendOpt(t, to, addr, data, DefaultSendOptions())
}

// SendOpt transmits data to process to. It returns when the local send
// operation completes — after the push phase; the pull phase proceeds
// asynchronously, reading the source buffer until the message is fully
// transferred, exactly like the paper's send. Zero-length messages are
// valid: they transfer no data but carry their (tag, lane) envelope and
// complete a matching receive.
func (ep *Endpoint) SendOpt(t *smp.Thread, to ProcessID, addr vm.VirtAddr, data []byte, o SendOptions) error {
	if to == AnySource {
		return fmt.Errorf("pushpull: send to AnySource from %v", ep.ID)
	}
	if o.Tag == AnyTag {
		return fmt.Errorf("pushpull: send with wildcard tag from %v", ep.ID)
	}
	if len(data) > 0 {
		if err := ep.Space.Check(addr, len(data)); err != nil {
			return fmt.Errorf("pushpull: send source: %w", err)
		}
	}
	if !ep.stack.intranode(to) {
		if derr := ep.stack.deadPeers[to.Node]; derr != nil {
			ep.stack.failedOps++
			return fmt.Errorf("pushpull: send to %v: %w", to, derr)
		}
	}
	ch := ChannelID{From: ep.ID, To: to}
	msgID := ep.nextMsg[ch]
	ep.nextMsg[ch] = msgID + 1
	lane := laneKey{ch: ch, tag: o.Tag}
	laneSeq := ep.nextLane[lane]
	ep.nextLane[lane] = laneSeq + 1

	if ep.stack.intranode(to) {
		ep.stack.sendIntra(t, ep, ch, msgID, addr, data, o, laneSeq)
	} else {
		ep.stack.sendInter(t, ep, ch, msgID, addr, data, o, laneSeq)
	}
	ep.sent++
	return nil
}

// Recv blocks until the next tag-0 message on channel from→ep arrives
// and is fully placed in the destination buffer at addr (bufLen bytes).
// See RecvOpt for tagged and wildcard receives.
func (ep *Endpoint) Recv(t *smp.Thread, from ProcessID, addr vm.VirtAddr, bufLen int) ([]byte, error) {
	b, _, err := ep.RecvOpt(t, from, addr, bufLen, RecvOptions{})
	return b, err
}

// RecvOpt blocks until the next eligible message arrives and is fully
// placed in the destination buffer at addr (bufLen bytes, which must be
// large enough). from may be AnySource and o.Tag may be AnyTag; the
// returned Status reports what actually matched. Within one (channel,
// tag) lane messages bind strictly in send order; wildcard receives bind
// the eligible message that started arriving first.
func (ep *Endpoint) RecvOpt(t *smp.Thread, from ProcessID, addr vm.VirtAddr, bufLen int, o RecvOptions) ([]byte, Status, error) {
	if bufLen < 0 {
		return nil, Status{}, fmt.Errorf("pushpull: negative receive buffer on %v", ep.ID)
	}
	if bufLen > 0 {
		if err := ep.Space.Check(addr, bufLen); err != nil {
			return nil, Status{}, fmt.Errorf("pushpull: receive destination: %w", err)
		}
	}
	if from != AnySource && !ep.stack.intranode(from) {
		if derr := ep.stack.deadPeers[from.Node]; derr != nil {
			ep.stack.failedOps++
			return nil, Status{}, fmt.Errorf("pushpull: receive from %v: %w", from, derr)
		}
	}
	cfg := ep.stack.Node.Cfg

	t.Exec(cfg.CallOverhead)
	t.Exec(cfg.SyscallEntry)

	op := ep.newRecvOp()
	op.src, op.tag, op.bufLen = from, o.Tag, bufLen

	// Register the receive operation and resolve the destination's zero
	// buffer. With masking (internode), registration becomes visible
	// first and the translation overlaps whatever the wire is doing; the
	// handler's direct copy waits for zbReadyAt. Without masking (and
	// always intranode), registration is visible only once translation
	// has finished — which is what loses the Push-All race for multi-page
	// buffers (Fig. 3).
	cost := sim.Duration(0)
	if bufLen > 0 {
		cost = ep.Space.TranslateCost(addr, bufLen)
	}
	// An AnySource receive may be bound by an intranode sender, whose
	// zero-buffer direct push copies at bind time with no way to wait
	// out a pending translation — so wildcard receives register
	// unmasked, like intranode ones.
	masked := ep.stack.Opts.MaskTranslation && from != AnySource && !ep.stack.intranode(from)
	t.Exec(cfg.QueueOp)
	if masked {
		op.zbReadyAt = t.Now().Add(cost)
		ep.register(t, op)
		t.Exec(cost)
	} else {
		t.Exec(cost)
		op.zbReadyAt = t.Now()
		ep.register(t, op)
	}

	// Service loop: drain buffered fragments, start the pull when its
	// time comes, park until the message completes. Matching (and the
	// buffer-overflow failure, which never consumes the message) happens
	// in settle, driven by registration and arrivals.
	for op.err == nil {
		if m := op.msg; m != nil {
			ep.drainBuffered(t, m)
			ep.maybeStartPull(t, m)
			if m.complete {
				break
			}
		}
		op.done.Wait(t.P)
		t.Exec(cfg.WakeLatency)
	}
	if op.err != nil {
		t.Exec(cfg.SyscallExit)
		return nil, Status{}, op.err
	}
	msg := op.msg
	t.Exec(cfg.SyscallExit)
	ep.received++
	ep.freeRecvOp(op)
	return msg.buf, Status{Source: msg.ch.From, Tag: msg.tag, Valid: true}, nil
}

// newRecvOp takes a receive op, with its completion cond, from the free
// list, or makes one.
func (ep *Endpoint) newRecvOp() *recvOp {
	if n := len(ep.freeOps); n > 0 {
		op := ep.freeOps[n-1]
		ep.freeOps[n-1] = nil
		ep.freeOps = ep.freeOps[:n-1]
		return op
	}
	return &recvOp{done: sim.NewCond(ep.stack.Node.Engine)}
}

// freeRecvOp recycles the op of a receive that completed. Nothing else
// holds it by then: the pending list dropped it at bind, and its
// message, complete and out of the inbound list, keeps it only for a
// late completion wake, which wakeRecv stops once op.msg is cleared. A
// failed receive's op is never recycled: a message it was bound to may
// still be inbound.
func (ep *Endpoint) freeRecvOp(op *recvOp) {
	*op = recvOp{done: op.done}
	ep.freeOps = append(ep.freeOps, op)
}

// register makes a receive operation visible to senders and handlers.
func (ep *Endpoint) register(t *smp.Thread, op *recvOp) {
	ep.pending = append(ep.pending, op)
	// A sender may already have parked fragments (or an announcement):
	// settle immediately so the wait loop sees them.
	ep.settle(op, nil)
}

// eligible reports whether m may bind a receive: it must be its lane's
// next message. Binding strictly by lane sequence (not arrival order)
// keeps lanes FIFO when rail striping reorders arrivals.
func (ep *Endpoint) eligible(m *inboundMsg) bool {
	return m.op == nil && m.laneSeq == ep.nextBind[m.lane()]
}

// bestMatch returns the eligible inbound message op's pattern matches,
// or nil: at most one per lane is eligible, and wildcard patterns take
// the one that started arriving first.
func (ep *Endpoint) bestMatch(op *recvOp) *inboundMsg {
	for _, m := range ep.inbound {
		if ep.eligible(m) && op.matches(m) {
			return m
		}
	}
	return nil
}

// bind ties a receive operation to an inbound message, removes the op
// from the pending list, and advances the lane. The caller must have
// validated capacity: a message never binds a receive it overflows.
func (ep *Endpoint) bind(op *recvOp, m *inboundMsg) {
	op.msg = m
	m.op = op
	ep.nextBind[m.lane()] = m.laneSeq + 1
	ep.dropPending(op)
}

// fail resolves a receive with an error, without consuming any message.
func (ep *Endpoint) fail(op *recvOp, err error) {
	op.err = err
	ep.dropPending(op)
}

// failPeer fails every operation on this endpoint bound to the
// now-unreachable peer node: pending receives naming it, messages
// mid-transfer from it, and parked synchronous senders toward it. Runs
// in timer context from Stack.peerUnreachable.
func (ep *Endpoint) failPeer(peer int, err error) {
	// Pending receives with a definite source on the dead peer. Iterate a
	// snapshot: fail mutates ep.pending.
	pend := append([]*recvOp(nil), ep.pending...)
	for _, op := range pend {
		if op.src != AnySource && op.src.Node == peer {
			ep.fail(op, err)
			op.done.Broadcast()
			ep.stack.failedOps++
		}
	}
	// Receives already bound to a message the dead peer will never
	// finish transferring.
	for _, m := range ep.inbound {
		if m.ch.From.Node == peer && m.op != nil && !m.complete && m.op.err == nil {
			m.op.err = err
			m.op.done.Broadcast()
			ep.stack.failedOps++
		}
	}
	// Parked synchronous (three-phase) senders waiting on a grant the
	// dead peer will never send. The map iterates in sorted key order so
	// the wake sequence is deterministic.
	keys := make([]sendKey, 0, len(ep.sendOps))
	for k := range ep.sendOps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.ch.To.Node != b.ch.To.Node {
			return a.ch.To.Node < b.ch.To.Node
		}
		if a.ch.To.Proc != b.ch.To.Proc {
			return a.ch.To.Proc < b.ch.To.Proc
		}
		return a.msgID < b.msgID
	})
	for _, k := range keys {
		op := ep.sendOps[k]
		if op.ch.To.Node == peer && op.done != nil && !op.granted && !op.served && op.err == nil {
			op.err = err
			op.done.Broadcast()
			ep.stack.failedOps++
		}
	}
}

func (ep *Endpoint) dropPending(op *recvOp) {
	for i, p := range ep.pending {
		if p == op {
			ep.pending = append(ep.pending[:i], ep.pending[i+1:]...)
			return
		}
	}
}

// settle resolves pending receives against eligible inbound messages
// until nothing more changes. Called after any state change that can
// create eligibility — an arrival or a lane advance. Receives resolve
// in posting order; a receive whose matched message overflows its
// buffer *fails without consuming it* (the message stays for a retry
// with room, and no pull phase ever starts on its behalf), exactly like
// a truncating MPI receive.
//
// Waking: a failed receive is always woken (nothing else ever will). A
// bound receive is woken unless the resolution involves the exempt op
// (registering in this very thread — its service loop runs next) or the
// exempt message (being delivered right now — the delivery path signals
// the bound receive itself, and an extra wake here would cost the
// receiver a spurious wake latency).
func (ep *Endpoint) settle(exemptOp *recvOp, exemptMsg *inboundMsg) {
	for {
		progressed := false
		for _, op := range ep.pending {
			m := ep.bestMatch(op)
			if m == nil {
				continue
			}
			if m.total > op.bufLen {
				ep.fail(op, fmt.Errorf("pushpull: message of %d bytes exceeds %d-byte receive buffer on %v", m.total, op.bufLen, ep.ID))
				if op != exemptOp {
					op.done.Broadcast()
				}
			} else {
				ep.bind(op, m)
				if op != exemptOp && m != exemptMsg {
					op.done.Broadcast()
				}
			}
			progressed = true
			break // the pending list changed: rescan from the front
		}
		if !progressed {
			return
		}
	}
}

// intraDirectRecv returns the pending receive a not-yet-registered
// intranode message m would bind directly (m must be its lane's next
// message and fit the receive's buffer), or nil — in which case the
// message parks and settle resolves it, including failing an
// undersized receive.
func (ep *Endpoint) intraDirectRecv(m *inboundMsg) *recvOp {
	if !ep.eligible(m) {
		return nil
	}
	for _, op := range ep.pending {
		if op.matches(m) {
			if m.total > op.bufLen {
				return nil
			}
			return op
		}
	}
	return nil
}

// findInbound returns the inbound message (ch, msgID), or nil.
func (ep *Endpoint) findInbound(ch ChannelID, msgID uint64) *inboundMsg {
	for _, m := range ep.inbound {
		if m.ch == ch && m.msgID == msgID {
			return m
		}
	}
	return nil
}

// addInbound registers a newly arriving message and settles it against
// the pending receives.
func (ep *Endpoint) addInbound(m *inboundMsg) {
	ep.inbound = append(ep.inbound, m)
	ep.settle(nil, m)
}

// removeInbound drops a completed message from the inbound list.
func (ep *Endpoint) removeInbound(m *inboundMsg) {
	for i, x := range ep.inbound {
		if x == m {
			ep.inbound = append(ep.inbound[:i], ep.inbound[i+1:]...)
			return
		}
	}
}

// drainBuffered copies fragments parked in the pushed buffer into the
// bound destination, charging the receiving thread (this is the second
// copy the pushed buffer costs; data arriving after the bind skips it).
func (ep *Endpoint) drainBuffered(t *smp.Thread, m *inboundMsg) {
	for len(m.buffered) > 0 {
		f := m.buffered[0]
		m.buffered = m.buffered[1:]
		t.Copy(len(f.data), true) // written by another CPU: cold
		copy(m.buf[f.offset:], f.data)
		m.received += len(f.data)
		if m.intraBuf > 0 {
			n := len(f.data)
			if n > m.intraBuf {
				n = m.intraBuf
			}
			ep.ring.releaseBytes(n)
			m.intraBuf -= n
		} else if m.slots > 0 {
			ep.ring.releaseSlot()
			m.slots--
		}
	}
	if m.received == m.total {
		ep.complete(nil, m) // receiver context: no completion signal needed
	}
}

// maybeStartPull launches the pull phase once: internode it sends the
// acknowledgement / pull request; intranode it dispatches the pull kernel
// thread.
func (ep *Endpoint) maybeStartPull(t *smp.Thread, m *inboundMsg) {
	if !ep.claimPull(m) {
		return
	}
	if ep.stack.intranode(m.ch.From) {
		ep.stack.dispatchIntraPull(m)
	} else {
		ep.stack.sendPullReq(t, m)
	}
}

// claimPull reports whether m's pull phase is due (bound, with bytes
// left to pull, not yet started) and marks it started.
func (ep *Endpoint) claimPull(m *inboundMsg) bool {
	if m.pullSent || m.op == nil || m.pullRemainder() <= 0 {
		return false
	}
	m.pullSent = true
	return true
}

// complete marks a message fully received. When a handler or pull thread
// finishes the message (t non-nil and a receiver is parked), it pays the
// cross-CPU signal; a receiver completing its own message inline passes
// t = nil. The receive handler does the same from a task (rxHandler).
func (ep *Endpoint) complete(t *smp.Thread, m *inboundMsg) {
	if !ep.markComplete(m) {
		return
	}
	if m.op != nil && t != nil {
		t.Exec(t.SignalCost(ep.stack.Node.CPUs[ep.CPU]))
	}
	m.wakeRecv()
}

// markComplete marks m complete and drops it from the inbound list. It
// reports false if m already was complete.
func (ep *Endpoint) markComplete(m *inboundMsg) bool {
	if m.complete {
		return false
	}
	m.complete = true
	ep.stack.chanEvent(trace.KindComplete, m.ch, m.msgID, "complete: %d/%d bytes received", m.received, m.total)
	ep.removeInbound(m)
	return true
}
