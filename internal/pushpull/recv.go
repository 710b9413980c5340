package pushpull

import (
	"fmt"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// receiver is one receive operation as a resumable step machine (see
// sender): RecvOpt drives it to completion on the calling thread, irecv
// on a pooled user task bound to the endpoint's CPU. After registering
// the receive it runs the service loop: drain fragments parked in the
// pushed buffer, start the pull phase when its time comes, and wait
// until the message completes. Matching (and the buffer-overflow
// failure, which never consumes the message) happens in settle, driven
// by registration and arrivals.
type receiver struct {
	ep     *Endpoint
	from   ProcessID
	addr   vmAddr
	bufLen int
	tag    int
	// post is the posting cost no calling thread paid (see isend).
	post sim.Duration
	// req is the nonblocking receive's handle; nil when RecvOpt drives
	// it.
	req *Request
	pc  recvPC
	op  *recvOp
	// cost is the destination's translation cost, masked whether the
	// receive registers before paying it; frag is the parked fragment
	// being drained.
	cost   sim.Duration
	masked bool
	frag   fragMsg
	// The outcome.
	data []byte
	st   Status
	err  error
	// taskFn is the bound runTask, made once per pooled record.
	taskFn func(t *smp.Task) bool
}

// recvPC is a receiver's resume point. A state that goes on to the next
// in order falls through to it (see sendPC).
type recvPC int8

const (
	rPost        recvPC = iota // pay the posting cost no thread paid
	rBegin                     // validate: call overhead
	rEntry                     // system call entry
	rQueue                     // take an op: register it
	rRegister                  // masked: register, then translate
	rRegistered                // unmasked: translated, register
	rServe                     // service loop: fail, serve or wait
	rWoken                     // woken: wake latency
	rDrain                     // drain the next parked fragment
	rDrained                   // copied: account for it
	rPullTrigger               // pull request queued: trigger the NIC
	rPullPost                  // NIC triggered: send the pull request
	rPulled                    // done unless the message is incomplete
	rReceived                  // system call exit paid: report the message
	rFail                      // failed: system call exit
	rFailed                    // report the failure
)

// newReceiver takes a receive record from the stack's free list, or
// makes one, and loads it with one receive.
func (s *Stack) newReceiver(ep *Endpoint, post sim.Duration, from ProcessID, addr vmAddr, bufLen int, o RecvOptions) *receiver {
	var r *receiver
	if n := len(s.freeReceivers); n > 0 {
		r = s.freeReceivers[n-1]
		s.freeReceivers[n-1] = nil
		s.freeReceivers = s.freeReceivers[:n-1]
	} else {
		r = &receiver{}
		r.taskFn = r.runTask
	}
	r.ep, r.post, r.from, r.addr, r.bufLen, r.tag = ep, post, from, addr, bufLen, o.Tag
	return r
}

// freeReceiver clears a finished receive record and recycles it.
func (s *Stack) freeReceiver(r *receiver) {
	*r = receiver{taskFn: r.taskFn}
	s.freeReceivers = append(s.freeReceivers, r)
}

// runTask is the receive's body on its helper task: once the receive is
// done it recycles the record and completes the Request.
func (r *receiver) runTask(t *smp.Task) bool {
	if !r.step(t) {
		return false
	}
	req, data, st, err := r.req, r.data, r.st, r.err
	r.ep.stack.freeReceiver(r)
	req.finish(data, st, err)
	return true
}

// step runs the receive until it parks (false) or is done (true); the
// outcome is then in data, st and err.
func (r *receiver) step(x smp.Runner) bool {
	ep := r.ep
	s := ep.stack
	cfg := &s.Node.Cfg
	for {
		switch r.pc {
		case rPost:
			r.pc = rBegin
			if r.post > 0 && x.Exec(r.post) {
				return false
			}
			fallthrough
		case rBegin:
			if r.err = r.validate(); r.err != nil {
				return true
			}
			r.pc = rEntry
			if x.Exec(cfg.CallOverhead) {
				return false
			}
			fallthrough
		case rEntry:
			r.pc = rQueue
			if x.Exec(cfg.SyscallEntry) {
				return false
			}
			fallthrough
		case rQueue:
			r.op = ep.newRecvOp()
			r.op.src, r.op.tag, r.op.bufLen = r.from, r.tag, r.bufLen
			// Register the receive operation and resolve the
			// destination's zero buffer. With masking (internode),
			// registration becomes visible first and the translation
			// overlaps whatever the wire is doing; the handler's direct
			// copy waits for zbReadyAt. Without masking (and always
			// intranode), registration is visible only once translation
			// has finished — which is what loses the Push-All race for
			// multi-page buffers (Fig. 3).
			if r.bufLen > 0 {
				r.cost = ep.Space.TranslateCost(r.addr, r.bufLen)
			}
			// An AnySource receive may be bound by an intranode sender,
			// whose zero-buffer direct push copies at bind time with no
			// way to wait out a pending translation — so wildcard
			// receives register unmasked, like intranode ones.
			r.masked = s.Opts.MaskTranslation && r.from != AnySource && !s.intranode(r.from)
			r.pc = rRegister
			if x.Exec(cfg.QueueOp) {
				return false
			}
			fallthrough
		case rRegister:
			if r.masked {
				r.op.zbReadyAt = x.Now().Add(r.cost)
				ep.register(r.op)
				r.pc = rServe
				if x.Exec(r.cost) {
					return false
				}
				continue
			}
			r.pc = rRegistered
			if x.Exec(r.cost) {
				return false
			}
			fallthrough
		case rRegistered:
			r.op.zbReadyAt = x.Now()
			ep.register(r.op)
			r.pc = rServe
			fallthrough
		case rServe:
			if r.op.err != nil {
				r.pc = rFail
				continue
			}
			if r.op.msg != nil {
				r.pc = rDrain
				continue
			}
			r.pc = rWoken
			if x.Wait(r.op.done) {
				return false
			}
			fallthrough
		case rWoken:
			r.pc = rServe
			if x.Exec(cfg.WakeLatency) {
				return false
			}
		case rDrain:
			// Copy fragments parked in the pushed buffer into the bound
			// destination (the second copy the pushed buffer costs;
			// data arriving after the bind skips it).
			m := r.op.msg
			if len(m.buffered) == 0 {
				if m.received == m.total && ep.markComplete(m) {
					m.wakeRecv() // receiver context: no completion signal needed
				}
				// Start the pull phase once: internode the receive sends
				// the acknowledgement-cum-pull-request; intranode it
				// dispatches the pull kernel thread.
				r.pc = rPulled
				if !ep.claimPull(m) {
					continue
				}
				if s.intranode(m.ch.From) {
					s.dispatchIntraPull(m)
					continue
				}
				r.pc = rPullTrigger
				if x.Exec(cfg.QueueOp) {
					return false
				}
				continue
			}
			r.frag = m.buffered[0]
			m.buffered = m.buffered[1:]
			r.pc = rDrained
			if x.Copy(len(r.frag.data), true) { // written by another CPU: cold
				return false
			}
			fallthrough
		case rDrained:
			m, f := r.op.msg, &r.frag
			copy(m.buf[f.offset:], f.data)
			m.received += len(f.data)
			if m.intraBuf > 0 {
				n := min(len(f.data), m.intraBuf)
				ep.ring.releaseBytes(n)
				m.intraBuf -= n
			} else if m.slots > 0 {
				ep.ring.releaseSlot()
				m.slots--
			}
			r.frag = fragMsg{}
			r.pc = rDrain
		case rPullTrigger:
			r.pc = rPullPost
			if x.Exec(s.nicKernelTrigger()) {
				return false
			}
			fallthrough
		case rPullPost:
			s.postPullReq(r.op.msg)
			r.pc = rPulled
			fallthrough
		case rPulled:
			if !r.op.msg.complete {
				r.pc = rWoken
				if x.Wait(r.op.done) {
					return false
				}
				continue
			}
			if r.op.err != nil {
				r.pc = rFail
				continue
			}
			r.pc = rReceived
			if x.Exec(cfg.SyscallExit) {
				return false
			}
			fallthrough
		case rReceived:
			msg := r.op.msg
			ep.received++
			ep.freeRecvOp(r.op)
			r.op = nil
			r.data, r.st = msg.buf, Status{Source: msg.ch.From, Tag: msg.tag, Valid: true}
			return true
		case rFail:
			r.pc = rFailed
			if x.Exec(cfg.SyscallExit) {
				return false
			}
			fallthrough
		case rFailed:
			// A failed receive's op is never recycled: a message it was
			// bound to may still be inbound.
			r.err = r.op.err
			r.op = nil
			return true
		}
	}
}

// validate checks the receive before it costs anything.
func (r *receiver) validate() error {
	ep := r.ep
	if r.bufLen < 0 {
		return fmt.Errorf("pushpull: negative receive buffer on %v", ep.ID)
	}
	if r.bufLen > 0 {
		if err := ep.Space.Check(r.addr, r.bufLen); err != nil {
			return fmt.Errorf("pushpull: receive destination: %w", err)
		}
	}
	if r.from != AnySource && !ep.stack.intranode(r.from) {
		if derr := ep.stack.deadPeers[r.from.Node]; derr != nil {
			ep.stack.failedOps++
			return fmt.Errorf("pushpull: receive from %v: %w", r.from, derr)
		}
	}
	return nil
}
