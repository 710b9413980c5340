package pushpull

import (
	"fmt"

	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// sender is one send operation as a resumable step machine (see
// smp.Runner). SendOpt drives it to completion on the calling thread;
// isend runs it on a pooled user task bound to the endpoint's CPU, the
// helper the paper's §4.1 overlap argument assumes. Every point where
// the send waits (a timed cost, a PIO or copy on the bus, pushed-buffer
// space, a three-phase grant) is a resume point: on a task the step
// returns there and the next step continues from pc.
//
// Its states follow the three send paths: internode Push-Pull (and
// Push-Zero and Push-All, internode.go), internode three-phase
// (threephase.go) and intranode (intranode.go).
type sender struct {
	ep   *Endpoint
	to   ProcessID
	addr vmAddr
	data []byte
	o    SendOptions
	// post is the posting cost no calling thread paid (see isend).
	post sim.Duration
	// req is the nonblocking send's handle; nil when SendOpt drives it.
	req *Request
	err error
	pc  sendPC
	// path is the first state of the send's path (see begin).
	path sendPC

	ch      ChannelID
	msgID   uint64
	laneSeq uint64
	op      *sendOp
	sess    *chanSession
	btp     int
	// translated records that the source translation has been paid.
	translated bool
	// runs holds the push runs (see pushRuns) and run the next one;
	// left is what remains of the current run, off the next byte to
	// send and pio how many leading bytes the user-level trigger
	// PIO-copies. frag is the fragment being sent.
	runs       [2]int
	nruns, run int
	left, off  int
	pio        int
	frag       fragMsg
	peer       *Endpoint   // intranode: the receiving endpoint
	m          *inboundMsg // intranode: the message at the receiver
	// taskFn is the bound runTask, made once per pooled record.
	taskFn func(t *smp.Task) bool
}

// sendPC is a sender's resume point. The path states are grouped so
// step can hand each range to its path, and within a path a state that
// goes on to the next in order falls through to it, so a send that does
// not park runs its states without going back through the switch.
type sendPC int8

const (
	sPost    sendPC = iota // pay the posting cost no thread paid
	sBegin                 // validate, number the message, set up its path
	sEnter                 // the library call's overhead
	sSyscall               // the system call's entry cost
	sQueue                 // register the send operation
	sExit                  // the system call's exit cost
	sDone                  // count the send

	// Internode Push-Pull, Push-Zero and Push-All (internode.go).
	sInterRegister  // registered: translate now unless masked
	sPushRun        // start the next push run
	sPushFrag       // next fragment of the run: PIO or trigger
	sPushDoorbell   // PIO done: ring the doorbell
	sPushTranslate  // Push-All: translate before the first DMA fragment
	sPushSend       // send the fragment
	sPushAnn        // NIC triggered: send a run's bare announcement
	sPushTail       // nothing pushed: trigger a bare announcement
	sPushTailAnn    // NIC triggered: send it
	sInterTranslate // masked: translate behind the pushed wire time
	sInterFinish    // retire a fully pushed send

	// Internode three-phase (threephase.go).
	sThreeRegister   // registered: translate, or announce an empty one
	sThreeTranslated // translated: trigger the RTS
	sThreeRTS        // send the RTS
	sThreeWait       // park until the CTS (or a dead peer)
	sThreeWoken      // woken: wake latency
	sThreeGranted    // CTS in: transmit, or abort
	sThreeFrag       // next fragment: trigger the NIC
	sThreeSend       // send it

	// Intranode (intranode.go).
	sIntraRegister // registered: push direct, or stage
	sIntraDirect   // copied into the destination: pull or complete
	sIntraSignal   // signal cost paid: wake the receive
	sIntraWait     // three-phase: park until the pull has served it
	sIntraWoken    // woken: wake latency
	sIntraReserve  // wait for pushed-buffer space, then copy
	sIntraStage    // copied into the pushed buffer
	sIntraStaged   // staged: wake a receive bound meanwhile
)

// newSender takes a send record from the stack's free list, or makes
// one, and loads it with one send.
func (s *Stack) newSender(ep *Endpoint, post sim.Duration, to ProcessID, addr vmAddr, data []byte, o SendOptions) *sender {
	var sd *sender
	if n := len(s.freeSenders); n > 0 {
		sd = s.freeSenders[n-1]
		s.freeSenders[n-1] = nil
		s.freeSenders = s.freeSenders[:n-1]
	} else {
		sd = &sender{}
		sd.taskFn = sd.runTask
	}
	sd.ep, sd.post, sd.to, sd.addr, sd.data, sd.o = ep, post, to, addr, data, o
	return sd
}

// freeSender clears a finished send record and recycles it.
func (s *Stack) freeSender(sd *sender) {
	*sd = sender{taskFn: sd.taskFn}
	s.freeSenders = append(s.freeSenders, sd)
}

// runTask is the send's body on its helper task: once the send is done
// it recycles the record and completes the Request.
func (sd *sender) runTask(t *smp.Task) bool {
	if !sd.step(t) {
		return false
	}
	req, err := sd.req, sd.err
	st := Status{Source: sd.ep.ID, Tag: sd.o.Tag, Valid: true}
	sd.ep.stack.freeSender(sd)
	req.finish(nil, st, err)
	return true
}

// step runs the send until it parks (false) or is done (true); sd.err
// then holds its outcome.
func (sd *sender) step(x smp.Runner) bool {
	cfg := &sd.ep.stack.Node.Cfg
	for {
		switch {
		case sd.pc == sPost:
			sd.pc = sBegin
			if sd.post > 0 && x.Exec(sd.post) {
				return false
			}
			fallthrough
		case sd.pc == sBegin:
			if sd.err = sd.begin(); sd.err != nil {
				return true
			}
			sd.pc = sEnter
			fallthrough
		case sd.pc == sEnter:
			sd.pc = sSyscall
			if x.Exec(cfg.CallOverhead) {
				return false
			}
			fallthrough
		case sd.pc == sSyscall:
			// The internode push-pull path's user-level trigger makes no
			// system call.
			sd.pc = sQueue
			if (sd.path != sInterRegister || !sd.ep.stack.Opts.UserTrigger) && x.Exec(cfg.SyscallEntry) {
				return false
			}
			fallthrough
		case sd.pc == sQueue:
			sd.pc = sd.path
			if x.Exec(cfg.QueueOp) {
				return false
			}
		case sd.pc == sExit:
			sd.pc = sDone
			if x.Exec(cfg.SyscallExit) {
				return false
			}
			fallthrough
		case sd.pc == sDone:
			sd.ep.sent++
			return true
		case sd.pc >= sIntraRegister:
			if sd.stepIntra(x) {
				return false
			}
		case sd.pc >= sThreeRegister:
			if sd.stepThreePhase(x) {
				return false
			}
		default:
			if sd.stepInter(x) {
				return false
			}
		}
	}
}

// begin validates the send, numbers the message on its channel and
// lane, and sets up its path: the BTP and the channel session, which
// exist before the send's first cost is paid.
func (sd *sender) begin() error {
	ep, s := sd.ep, sd.ep.stack
	to := sd.to
	if to == AnySource {
		return fmt.Errorf("pushpull: send to AnySource from %v", ep.ID)
	}
	if sd.o.Tag == AnyTag {
		return fmt.Errorf("pushpull: send with wildcard tag from %v", ep.ID)
	}
	if len(sd.data) > 0 {
		if err := ep.Space.Check(sd.addr, len(sd.data)); err != nil {
			return fmt.Errorf("pushpull: send source: %w", err)
		}
	}
	if !s.intranode(to) {
		if derr := s.deadPeers[to.Node]; derr != nil {
			s.failedOps++
			return fmt.Errorf("pushpull: send to %v: %w", to, derr)
		}
	}
	sd.ch = ChannelID{From: ep.ID, To: to}
	sd.msgID = ep.nextMsg[sd.ch]
	ep.nextMsg[sd.ch] = sd.msgID + 1
	lane := laneKey{ch: sd.ch, tag: sd.o.Tag}
	sd.laneSeq = ep.nextLane[lane]
	ep.nextLane[lane] = sd.laneSeq + 1
	total := len(sd.data)
	switch {
	case s.intranode(to):
		sd.path = sIntraRegister
		sd.btp = s.Opts.intraBTP(total)
	case s.Opts.Mode == ThreePhase:
		sd.path = sThreeRegister
		sd.sess = s.outSession(sd.ch)
	default:
		sd.path = sInterRegister
		btp := s.Opts.interBTP(total)
		if sd.o.BTP >= 0 && s.Opts.Mode == PushPull {
			btp = sd.o.BTP
		} else if s.Adapter != nil && s.Opts.Mode == PushPull {
			btp = s.Adapter.BTP(sd.ch, total)
		}
		sd.btp = min(max(btp, 0), total)
		sd.sess = s.outSession(sd.ch)
	}
	return nil
}

// register puts the send operation on the endpoint's send queue.
func (sd *sender) register(op *sendOp) {
	sd.op = op
	sd.ep.sendOps[sendKey{sd.ch, sd.msgID}] = op
}
