package pushpull

import (
	"fmt"
	"sort"

	"pushpull/internal/ether"
	"pushpull/internal/gbn"
	"pushpull/internal/nic"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// Stack is the messaging layer of one node: the endpoints living there,
// plus one pair of go-back-N lanes *per directed channel* toward every
// peer node reachable through the attached NICs.
//
// Per-channel sessions are the protocol-level fix for the shared-stream
// livelock: a refused fully-eager fragment stalls only its own channel's
// stream, so pull traffic and other channels keep draining the pushed
// buffer and the refused fragment's retransmission eventually lands.
// Each channel owns a data lane (sender→receiver fragments) and a
// control lane (receiver→sender pull requests), one go-back-N pair per
// rail.
//
// A node may attach several NICs ("rails"); fragments of one message are
// striped across rails round-robin, realizing the paper's §6 outlook —
// "a more general mechanism to work with multiple network interfaces
// using multiple processors". Per-rail go-back-N keeps each rail in
// order; cross-rail reordering is absorbed by offset-addressed assembly
// and strict lane-sequence receive matching.
type Stack struct {
	Node *smp.Node
	Opts Options

	eps   map[int]*Endpoint
	peers map[int]bool // wired peer nodes (AddPeer)
	nics  []*nic.NIC
	// outSess/inSess hold this node's halves of every channel session it
	// has touched: outSess for channels this node sends on (data-lane
	// sender + control-lane receiver), inSess for channels it receives
	// on (data-lane receiver + control-lane sender). Sessions are
	// created lazily on first use; sessOrder records creation order so
	// post-run iteration (stats, recorders) is deterministic.
	outSess   map[ChannelID]*chanSession
	inSess    map[ChannelID]*chanSession
	sessOrder []*chanSession
	// rxLock serializes the reception handlers' deliveries (see
	// rxHandler.Step). Handlers wait for it in FIFO order.
	rxLock *sim.Resource

	// discardedBytes counts pushed bytes the receive side dropped for
	// lack of pushed-buffer space (re-fetched by the pull phase) — the
	// wire bandwidth the eager push wasted.
	discardedBytes uint64

	// deadPeers holds the typed unreachability error per peer node a
	// go-back-N sender declared dead (retransmission budget exhausted).
	// Operations toward a dead peer fail fast with that error.
	deadPeers map[int]*PeerUnreachableError
	// failedOps counts operations the stack failed with
	// ErrPeerUnreachable (pending receives, mid-transfer messages and
	// parked senders at declaration time, plus fast-failed entries).
	failedOps uint64

	// Rec, when set, receives every protocol event as a structured
	// trace.Event. A nil recorder is valid and records nothing.
	Rec *trace.Recorder
	// Adapter, when set, chooses the internode PushPull BTP per message
	// and receives pull-request feedback (see BTPAdapter).
	Adapter BTPAdapter

	// freeSenders, freeReceivers and freePullers recycle the step
	// machines of finished sends, receives and intranode pulls.
	freeSenders   []*sender
	freeReceivers []*receiver
	freePullers   []*puller
}

// NewStack builds the messaging layer for node n. It panics on invalid
// options: stacks are constructed from code, not user input.
func NewStack(n *smp.Node, opts Options) *Stack {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Stack{
		Node:      n,
		Opts:      opts,
		eps:       make(map[int]*Endpoint),
		peers:     make(map[int]bool),
		outSess:   make(map[ChannelID]*chanSession),
		inSess:    make(map[ChannelID]*chanSession),
		deadPeers: make(map[int]*PeerUnreachableError),
		rxLock:    sim.NewResource(n.Engine, fmt.Sprintf("rxlock/n%d", n.ID)),
	}
}

// SetRecorder attaches a structured trace recorder to the stack and
// propagates it to the attached NICs and go-back-N sessions, so one
// recorder sees the whole node's protocol, link and reliability events.
// Sessions created later inherit it at creation.
func (s *Stack) SetRecorder(rec *trace.Recorder) {
	s.Rec = rec
	for _, nc := range s.nics {
		nc.Rec = rec
	}
	for _, sess := range s.sessOrder {
		for _, r := range sess.rails {
			for l := lane(0); l < numLanes; l++ {
				if snd := r.snd[l]; snd != nil {
					snd.SetTrace(rec, s.Node.ID)
				}
			}
		}
	}
}

// event publishes one structured protocol event, formatted only if read.
func (s *Stack) event(k trace.Kind, format string, args ...int) {
	s.Rec.Add(s.Node.Engine.Now(), s.Node.ID, k, format, args...)
}

// chanFormat heads every channel-bound event's text, rendering the
// channel as ChannelID.String does, then the message id.
const chanFormat = "n%d.p%d->n%d.p%d#%d "

// chanEvent publishes one protocol event of message msgID on channel ch.
// The channel travels as four integers, so recording formats nothing.
func (s *Stack) chanEvent(k trace.Kind, ch ChannelID, msgID uint64, format string, args ...int) {
	if s.Rec == nil {
		return
	}
	var a [trace.MaxArgs]int
	a[0], a[1], a[2], a[3], a[4] = ch.From.Node, ch.From.Proc, ch.To.Node, ch.To.Proc, int(msgID)
	n := 5 + copy(a[5:], args)
	s.Rec.AddPrefixed(s.Node.Engine.Now(), s.Node.ID, k, chanFormat, format, a[:n]...)
}

// NewEndpoint registers a communicating process on this node, bound to
// CPU cpu, and returns its endpoint. The endpoint owns a fresh address
// space.
func (s *Stack) NewEndpoint(proc, cpu int) *Endpoint {
	if _, dup := s.eps[proc]; dup {
		panic(fmt.Sprintf("pushpull: duplicate endpoint %d on node %d", proc, s.Node.ID))
	}
	ep := &Endpoint{
		stack:    s,
		ID:       ProcessID{Node: s.Node.ID, Proc: proc},
		CPU:      cpu,
		Space:    s.Node.NewSpace(fmt.Sprintf("p%d", proc)),
		ring:     newPushedBuffer(s.Node.Engine, s.Opts.PushedBufBytes),
		sendOps:  make(map[sendKey]*sendOp),
		nextMsg:  make(map[ChannelID]uint64),
		nextLane: make(map[laneKey]uint64),
		nextBind: make(map[laneKey]uint64),
	}
	s.eps[proc] = ep
	return ep
}

// Endpoint returns the endpoint of process proc, or nil.
func (s *Stack) Endpoint(proc int) *Endpoint { return s.eps[proc] }

// Procs reports the number of registered endpoints. Endpoints are
// numbered 0..Procs()-1 by every builder in the repo, so this is the
// bound for rank enumeration — no probing loop needed.
func (s *Stack) Procs() int { return len(s.eps) }

// AttachNIC adds a network interface (rail) and installs the reception
// handler. Call once per rail, before AddPeer.
func (s *Stack) AttachNIC(nc *nic.NIC) {
	railIdx := len(s.nics)
	s.nics = append(s.nics, nc)
	nc.SetRxHandler(func() nic.RxHandler { return &rxHandler{s: s, rail: railIdx} })
}

// NIC returns rail 0's NIC (nil for an intranode-only stack); Rails
// reports the rail count.
func (s *Stack) NIC() *nic.NIC {
	if len(s.nics) == 0 {
		return nil
	}
	return s.nics[0]
}

// Rails reports the number of attached NICs.
func (s *Stack) Rails() int { return len(s.nics) }

// AddPeer wires peer node into the topology. Channel sessions toward it
// are created lazily, one per directed channel, on first use. All NICs
// must be attached first.
func (s *Stack) AddPeer(peerNode int) {
	if len(s.nics) == 0 {
		panic("pushpull: AddPeer before AttachNIC")
	}
	if s.peers[peerNode] {
		panic(fmt.Sprintf("pushpull: duplicate peer %d on node %d", peerNode, s.Node.ID))
	}
	s.peers[peerNode] = true
}

// chanSession is one node's half of a directed channel's reliable
// transport. At the channel's From node (out = true) each rail carries
// go-back-N *senders* for the eager and pull data lanes and a *receiver*
// for the control lane's pull requests; at the To node the roles mirror.
type chanSession struct {
	stack *Stack
	ch    ChannelID
	peer  int  // remote node
	out   bool // true at ch.From's node
	rails []*chanRail
	next  [numLanes]int // per-lane round-robin rail cursors
}

// chanRail is one NIC's lane set for a channel session: per lane, a
// sender or a receiver depending on which side of the channel this node
// is (the unused halves stay nil).
type chanRail struct {
	sess *chanSession
	idx  int
	nic  *nic.NIC
	snd  [numLanes]*gbn.Sender
	rcv  [numLanes]*gbn.Receiver
	// txPool recycles the one-shot enqueue tasklets that hand frames to
	// the NIC (the former tx/ and tx-ack/ helper processes).
	txPool []*txJob
}

// txJob enqueues one frame into the rail's NIC FIFO: a one-shot tasklet
// that parks on ring space instead of blocking a goroutine.
type txJob struct {
	rail *chanRail
	tk   *sim.Tasklet
	req  nic.TxRequest
}

func (j *txJob) step(tk *sim.Tasklet) {
	if !j.rail.nic.SendPoll(tk, j.req) {
		return
	}
	j.req = nic.TxRequest{}
	j.rail.txPool = append(j.rail.txPool, j)
}

// launchTx starts a pooled enqueue tasklet for req. Like the helper
// process it replaces, it never blocks the caller — transmit runs in
// handler and timer context — and enqueue order follows launch order
// because the engine's dispatch ring and the FIFO's waiter list are both
// FIFO.
func (r *chanRail) launchTx(req nic.TxRequest) {
	var j *txJob
	if n := len(r.txPool); n > 0 {
		j = r.txPool[n-1]
		r.txPool = r.txPool[:n-1]
	} else {
		j = &txJob{rail: r}
		j.tk = r.sess.stack.Node.Engine.NewTasklet("tx", j.step)
	}
	j.req = req
	j.tk.Start()
}

// outSession returns (creating if needed) the sending-side session of
// channel ch: this node transmits data fragments and receives pull
// requests.
func (s *Stack) outSession(ch ChannelID) *chanSession {
	if sess := s.outSess[ch]; sess != nil {
		return sess
	}
	sess := s.newSession(ch, ch.To.Node, true)
	s.outSess[ch] = sess
	return sess
}

// inSession returns (creating if needed) the receiving-side session of
// channel ch: this node receives data fragments and transmits pull
// requests.
func (s *Stack) inSession(ch ChannelID) *chanSession {
	if sess := s.inSess[ch]; sess != nil {
		return sess
	}
	sess := s.newSession(ch, ch.From.Node, false)
	s.inSess[ch] = sess
	return sess
}

func (s *Stack) newSession(ch ChannelID, peer int, out bool) *chanSession {
	if !s.peers[peer] {
		panic(fmt.Sprintf("pushpull: node %d has no peer wiring toward node %d (channel %v)", s.Node.ID, peer, ch))
	}
	sess := &chanSession{stack: s, ch: ch, peer: peer, out: out}
	for i := range s.nics {
		r := &chanRail{sess: sess, idx: i, nic: s.nics[i]}
		for l := lane(0); l < numLanes; l++ {
			l := l
			if l.toSender() != out {
				// This node transmits on the lane.
				r.snd[l] = gbn.NewSender(s.Node.Engine, s.Opts.GBN, func(pkt gbn.Packet) { r.transmit(l, pkt) })
				r.snd[l].SetTrace(s.Rec, s.Node.ID)
				if s.Opts.GBN.MaxRetries > 0 {
					r.snd[l].SetOnDead(func() { s.peerUnreachable(peer) })
				}
			} else {
				// This node receives on the lane; the receive handler
				// delivers (rxHandler).
				r.rcv[l] = gbn.NewReceiver(nil, func(ack uint32) { r.transmitAck(l, ack) })
			}
		}
		sess.rails = append(sess.rails, r)
	}
	s.sessOrder = append(s.sessOrder, sess)
	return sess
}

// send stripes a protocol packet onto the lane's next rail.
func (ps *chanSession) send(l lane, bytes int, data any) {
	r := ps.rails[ps.next[l]]
	ps.next[l] = (ps.next[l] + 1) % len(ps.rails)
	r.snd[l].Send(bytes, data)
}

// transmit hands a go-back-N packet to this rail's NIC, addressed to the
// given lane. It must not block the caller (it may run in handler or
// timer context), so the enqueue — which can wait for outgoing-FIFO
// space — happens on a one-shot tasklet.
func (r *chanRail) transmit(l lane, pkt gbn.Packet) {
	preloaded := false
	switch d := pkt.Data.(type) {
	case fragMsg:
		preloaded = d.preloaded
	case pullReqMsg:
		preloaded = true // built directly in the FIFO by the kernel
	}
	s := r.sess.stack
	frame := ether.Frame{
		Src:          s.Node.ID,
		Dst:          r.sess.peer,
		PayloadBytes: pkt.Bytes,
		Payload:      wireMsg{ch: r.sess.ch, lane: l, pkt: pkt},
	}
	r.launchTx(nic.TxRequest{Frame: frame, Preloaded: preloaded})
}

// transmitAck sends a raw cumulative link acknowledgement for one lane
// on this rail (not itself reliable; a lost ack is recovered by the data
// retransmission path).
func (r *chanRail) transmitAck(l lane, ack uint32) {
	s := r.sess.stack
	frame := ether.Frame{
		Src:          s.Node.ID,
		Dst:          r.sess.peer,
		PayloadBytes: linkAckMsg{}.wireBytes(),
		Payload:      wireMsg{ch: r.sess.ch, lane: l, isAck: true, ack: linkAckMsg{ack: ack}},
	}
	r.launchTx(nic.TxRequest{Frame: frame, Preloaded: true})
}

// peerUnreachable marks peer dead — a go-back-N sender toward it
// exhausted its retransmission budget — and fails every operation bound
// to it: pending receives naming the peer, messages mid-transfer from
// it, and parked three-phase senders toward it. Subsequent sends and
// receives involving the peer fail fast at entry. It runs in timer
// context (the sender's onDead callback) and fires once per peer.
func (s *Stack) peerUnreachable(peer int) {
	if s.deadPeers[peer] != nil {
		return
	}
	err := &PeerUnreachableError{Node: s.Node.ID, Peer: peer}
	s.deadPeers[peer] = err
	s.event(trace.KindError, "peer node %d unreachable: retransmission budget exhausted", peer)
	// Endpoints are numbered 0..Procs()-1 by every builder; index order
	// keeps the wake sequence deterministic.
	for proc := 0; proc < len(s.eps); proc++ {
		if ep := s.eps[proc]; ep != nil {
			ep.failPeer(peer, err)
		}
	}
}

// DeadPeers returns the peers this node has declared unreachable, in
// ascending node order.
func (s *Stack) DeadPeers() []int {
	var out []int
	for p := range s.deadPeers {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// FailedOps reports operations this stack failed with
// ErrPeerUnreachable.
func (s *Stack) FailedOps() uint64 { return s.failedOps }

// RTOSamples appends every backed-off adaptive timeout (µs) this node's
// go-back-N senders armed after retransmissions, in session order.
func (s *Stack) RTOSamples(dst []float64) []float64 {
	for _, sess := range s.sessOrder {
		for _, r := range sess.rails {
			for l := lane(0); l < numLanes; l++ {
				if snd := r.snd[l]; snd != nil {
					dst = append(dst, snd.RTOSamples()...)
				}
			}
		}
	}
	return dst
}

// LinkStats aggregates the go-back-N counters of every channel session
// between this node and peer, both lanes: the transmitting halves on
// this node (data out plus control out) and the receiving halves (data
// in plus control in).
type LinkStats struct {
	// Transmitting halves on this node toward peer. Recovered counts
	// packets acknowledged only after at least one retransmission — the
	// deliveries the reliability layer actually saved.
	Retransmissions, Timeouts, Recovered, Outstanding, Queued uint64
	// Receiving halves on this node from peer.
	Delivered, Rejected, OutOfOrder, Duplicates uint64
}

// LinkStats sums the reliability counters of every session toward/from
// peer (see LinkStats fields). ChannelStats narrows to one channel.
func (s *Stack) LinkStats(peer int) LinkStats {
	var st LinkStats
	for _, sess := range s.sessOrder {
		if sess.peer != peer {
			continue
		}
		sess.addStats(&st)
	}
	return st
}

// ChannelStats sums the reliability counters of one channel's sessions
// at this node (out and in halves, every rail and lane).
func (s *Stack) ChannelStats(ch ChannelID) LinkStats {
	var st LinkStats
	if sess := s.outSess[ch]; sess != nil {
		sess.addStats(&st)
	}
	if sess := s.inSess[ch]; sess != nil {
		sess.addStats(&st)
	}
	return st
}

func (ps *chanSession) addStats(st *LinkStats) {
	for _, r := range ps.rails {
		for l := lane(0); l < numLanes; l++ {
			if snd := r.snd[l]; snd != nil {
				st.Retransmissions += snd.Retransmissions()
				st.Timeouts += snd.Timeouts()
				st.Recovered += snd.Recovered()
				st.Outstanding += uint64(snd.Outstanding())
				st.Queued += uint64(snd.Queued())
			}
			if rcv := r.rcv[l]; rcv != nil {
				st.Delivered += rcv.Delivered()
				st.Rejected += rcv.Rejected()
				st.OutOfOrder += rcv.OutOfOrder()
				st.Duplicates += rcv.Duplicates()
			}
		}
	}
}

// Sessions reports how many channel sessions this node has materialized
// (out and in halves counted separately).
func (s *Stack) Sessions() int { return len(s.sessOrder) }

// DiscardedBytes reports pushed bytes this node's receive side discarded
// for lack of pushed-buffer space (later re-fetched by pull requests).
func (s *Stack) DiscardedBytes() uint64 { return s.discardedBytes }

// intranode reports whether dst lives on this node.
func (s *Stack) intranode(dst ProcessID) bool { return dst.Node == s.Node.ID }

// nicTrigger reports the user-level doorbell cost (rail 0; rails are
// identical hardware).
func (s *Stack) nicTrigger() sim.Duration { return s.nics[0].TriggerCost() }

// nicKernelTrigger reports the kernel driver transmit path cost.
func (s *Stack) nicKernelTrigger() sim.Duration { return s.nics[0].KernelTriggerCost() }
