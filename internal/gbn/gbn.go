// Package gbn implements the go-back-N sliding-window reliability protocol
// (Tanenbaum, Computer Networks 3/e, pp. 207–213 — the paper's reference
// [10]) that Push-Pull Messaging runs over raw Ethernet frames.
//
// The receiver accepts packets strictly in order and acknowledges
// cumulatively. A packet the upper layer cannot buffer (pushed buffer
// full) is treated exactly like a lost packet: it is not acknowledged, and
// the sender's retransmission timer eventually resends the window. That
// path is what produces the paper's ~150 ms Push-All collapse in the
// late-receiver test (Fig. 6, right).
//
// Beyond the paper's fixed-timeout sender, the Config can arm an adaptive
// retransmission timeout (RFC 6298-style SRTT/RTTVAR estimation with
// Karn's algorithm and exponential backoff on consecutive timeouts) and a
// retransmission budget: after MaxRetries consecutive timeouts with no
// acknowledgement progress the sender declares the peer dead and fires the
// OnDead callback exactly once, so the layer above can fail fast instead
// of retransmitting into a black hole forever. Both features default off,
// in which case the sender behaves bit-for-bit like the fixed-RTO
// original.
package gbn

import (
	"fmt"

	"pushpull/internal/sim"
	"pushpull/internal/trace"
)

// Config parameterizes one go-back-N session.
type Config struct {
	// Window is the maximum number of unacknowledged packets in flight.
	Window int
	// RTO is the retransmission timeout. The paper's implementation ran
	// on Linux 2.1 jiffy timers; the observed recovery penalty is about
	// 150 ms ("It took around 150 ms to transfer a 3072-byte message").
	// With Adaptive set it becomes the initial RTO used until the first
	// RTT sample arrives.
	RTO sim.Duration

	// Adaptive switches the sender from the fixed RTO to an RFC 6298
	// estimator: SRTT/RTTVAR track acknowledged round trips (Karn's
	// algorithm: retransmitted packets never contribute samples), the
	// timeout is SRTT + 4·RTTVAR clamped to [MinRTO, MaxRTO], and each
	// consecutive timeout doubles it (exponential backoff) until an
	// acknowledgement makes progress again.
	Adaptive bool
	// MinRTO / MaxRTO clamp the adaptive timeout. Zero values default to
	// 1 ms and 60 s (raised to RTO if RTO is larger).
	MinRTO sim.Duration
	MaxRTO sim.Duration

	// MaxRetries, when positive, is the retransmission budget: after this
	// many consecutive timeouts without acknowledgement progress the
	// sender goes dead — it stops retransmitting and re-arming its timer,
	// queues (but never transmits) further Sends, and fires the OnDead
	// callback once. Zero means retry forever (the paper's behavior).
	MaxRetries int
}

// DefaultConfig mirrors the paper's implementation.
func DefaultConfig() Config {
	return Config{Window: 8, RTO: 150 * sim.Millisecond}
}

// ConfigError is the typed validation error returned by Config.Validate.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("gbn: invalid config: %s %s", e.Field, e.Reason)
}

// Validate checks the configuration, returning a *ConfigError describing
// the first violated constraint.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return &ConfigError{Field: "Window", Reason: fmt.Sprintf("must be positive, got %d", c.Window)}
	}
	if c.RTO <= 0 {
		return &ConfigError{Field: "RTO", Reason: fmt.Sprintf("must be positive, got %v", c.RTO)}
	}
	if c.MinRTO < 0 {
		return &ConfigError{Field: "MinRTO", Reason: fmt.Sprintf("must not be negative, got %v", c.MinRTO)}
	}
	if c.MaxRTO < 0 {
		return &ConfigError{Field: "MaxRTO", Reason: fmt.Sprintf("must not be negative, got %v", c.MaxRTO)}
	}
	if c.MinRTO > 0 && c.MaxRTO > 0 && c.MinRTO > c.MaxRTO {
		return &ConfigError{Field: "MinRTO", Reason: fmt.Sprintf("exceeds MaxRTO (%v > %v)", c.MinRTO, c.MaxRTO)}
	}
	if c.MaxRetries < 0 {
		return &ConfigError{Field: "MaxRetries", Reason: fmt.Sprintf("must not be negative, got %d", c.MaxRetries)}
	}
	return nil
}

// Packet is one link-layer payload with a go-back-N sequence number.
type Packet struct {
	Seq   uint32
	Bytes int // payload size on the wire (protocol headers included)
	Data  any
}

// entry is one in-flight packet plus the bookkeeping the adaptive RTO
// needs: when it last went to the wire and whether it was ever
// retransmitted (Karn's algorithm excludes retransmitted packets from RTT
// sampling — their acks are ambiguous).
type entry struct {
	pkt    Packet
	sentAt sim.Time
	rexmit bool
}

// Sender is the transmitting half of a session. transmit hands a packet
// to the wire; it must not block (enqueue and return).
type Sender struct {
	cfg      Config
	e        *sim.Engine
	transmit func(Packet)
	timer    *sim.Timer

	next     uint32 // next sequence number to assign
	base     uint32 // oldest unacknowledged
	inflight sim.FIFO[entry]
	pending  sim.FIFO[Packet] // accepted but outside the window

	retransmissions uint64
	timeouts        uint64
	recovered       uint64 // packets acknowledged only after retransmission

	// Adaptive RTO state (RFC 6298): srtt/rttvar are valid once haveRTT.
	srtt    sim.Duration
	rttvar  sim.Duration
	haveRTT bool
	// consec counts consecutive timeouts since the last acknowledgement
	// progress; it drives the exponential backoff and the retransmission
	// budget.
	consec int
	// rtoLog records (µs) every backed-off timeout the adaptive sender
	// armed after a retransmission, for degradation reporting.
	rtoLog []float64

	dead   bool
	onDead func()

	rec     *trace.Recorder
	recNode int
}

// NewSender creates the sending half of a session on engine e. It panics
// on an invalid configuration (sessions are constructed from code, not
// user input); validate with Config.Validate first to get the error.
func NewSender(e *sim.Engine, cfg Config, transmit func(Packet)) *Sender {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sender{cfg: cfg, e: e, transmit: transmit, recNode: -1}
	s.timer = sim.NewTimer(e, s.onTimeout)
	return s
}

// SetTrace attaches a structured trace recorder; node labels the events.
func (s *Sender) SetTrace(rec *trace.Recorder, node int) {
	s.rec = rec
	s.recNode = node
}

// SetOnDead registers the callback fired exactly once when the sender
// exhausts its retransmission budget (Config.MaxRetries). It runs in
// timer context and must not block.
func (s *Sender) SetOnDead(fn func()) { s.onDead = fn }

// Send accepts a payload for reliable in-order delivery. If the window is
// open the packet goes to the wire immediately; otherwise it queues until
// acknowledgements open the window. A dead sender only queues.
func (s *Sender) Send(bytes int, data any) {
	pkt := Packet{Seq: s.next, Bytes: bytes, Data: data}
	s.next++
	if !s.dead && s.inflight.Len() < s.cfg.Window {
		s.inflight.Push(entry{pkt: pkt, sentAt: s.e.Now()})
		s.transmit(pkt)
		if !s.timer.Armed() {
			s.timer.Reset(s.rto())
		}
	} else {
		s.pending.Push(pkt)
	}
}

// OnAck processes a cumulative acknowledgement: ack is the receiver's
// next expected sequence number, so every packet with Seq < ack is
// confirmed delivered.
func (s *Sender) OnAck(ack uint32) {
	if s.dead {
		return // budget already exhausted and reported; stay failed
	}
	if ack <= s.base {
		return // stale or duplicate
	}
	advance := int(ack - s.base)
	if advance > s.inflight.Len() {
		panic(fmt.Sprintf("gbn: ack %d beyond inflight window [%d, %d)", ack, s.base, s.base+uint32(s.inflight.Len())))
	}
	now := s.e.Now()
	var sample sim.Duration
	haveSample := false
	for i := 0; i < advance; i++ {
		ent := s.inflight.At(i)
		if ent.rexmit {
			s.recovered++
		} else {
			// Karn's algorithm: only never-retransmitted packets yield
			// samples; the last (freshest) one wins.
			sample = now.Sub(ent.sentAt)
			haveSample = true
		}
	}
	s.inflight.Discard(advance)
	s.base = ack
	s.consec = 0
	if s.cfg.Adaptive && haveSample {
		s.updateRTT(sample)
	}
	// Open window: promote pending packets.
	for s.pending.Len() > 0 && s.inflight.Len() < s.cfg.Window {
		pkt, _ := s.pending.Pop()
		s.inflight.Push(entry{pkt: pkt, sentAt: now})
		s.transmit(pkt)
	}
	if s.inflight.Len() == 0 {
		s.timer.Stop()
	} else {
		s.timer.Reset(s.rto())
	}
}

// updateRTT folds one round-trip sample into the RFC 6298 estimator.
func (s *Sender) updateRTT(r sim.Duration) {
	if !s.haveRTT {
		s.srtt = r
		s.rttvar = r / 2
		s.haveRTT = true
		return
	}
	diff := s.srtt - r
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + r) / 8
}

// rtoBounds resolves the configured clamp, applying the documented
// defaults for zero values.
func (s *Sender) rtoBounds() (lo, hi sim.Duration) {
	lo = s.cfg.MinRTO
	if lo <= 0 {
		lo = sim.Millisecond
	}
	hi = s.cfg.MaxRTO
	if hi <= 0 {
		hi = 60 * sim.Second
		if s.cfg.RTO > hi {
			hi = s.cfg.RTO
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// rto returns the timeout to arm next: the fixed Config.RTO, or — when
// Adaptive — the estimator's SRTT + 4·RTTVAR, doubled per consecutive
// timeout and clamped to [MinRTO, MaxRTO].
func (s *Sender) rto() sim.Duration {
	if !s.cfg.Adaptive {
		return s.cfg.RTO
	}
	d := s.cfg.RTO
	if s.haveRTT {
		d = s.srtt + 4*s.rttvar
	}
	lo, hi := s.rtoBounds()
	if d < lo {
		d = lo
	}
	for i := 0; i < s.consec && d < hi; i++ {
		d *= 2
	}
	if d > hi {
		d = hi
	}
	return d
}

// onTimeout retransmits the entire window (the defining go-back-N move),
// unless the retransmission budget is exhausted — then the sender goes
// dead and reports it instead.
func (s *Sender) onTimeout() {
	if s.inflight.Len() == 0 || s.dead {
		return
	}
	s.timeouts++
	s.consec++
	if s.cfg.MaxRetries > 0 && s.consec > s.cfg.MaxRetries {
		s.dead = true
		s.rec.Recordf(s.e.Now(), s.recNode, trace.KindRTO,
			"retransmission budget exhausted after %d consecutive timeouts, window [%d,%d) abandoned",
			s.consec-1, s.base, s.base+uint32(s.inflight.Len()))
		if s.onDead != nil {
			cb := s.onDead
			s.onDead = nil
			cb()
		}
		return
	}
	s.rec.Add(s.e.Now(), s.recNode, trace.KindRTO, "timeout #%d, window [%d,%d) retransmits", int(s.timeouts), int(s.base), int(s.base+uint32(s.inflight.Len())))
	for i := 0; i < s.inflight.Len(); i++ {
		ent := s.inflight.At(i)
		s.retransmissions++
		ent.rexmit = true
		s.rec.Add(s.e.Now(), s.recNode, trace.KindRetransmit, "seq %d (%dB)", int(ent.pkt.Seq), ent.pkt.Bytes)
		s.transmit(ent.pkt)
	}
	next := s.rto()
	if s.cfg.Adaptive {
		s.rtoLog = append(s.rtoLog, next.Microseconds())
	}
	s.timer.Reset(next)
}

// Outstanding reports packets sent but not yet acknowledged.
func (s *Sender) Outstanding() int { return s.inflight.Len() }

// Queued reports packets accepted but still waiting for window space.
func (s *Sender) Queued() int { return s.pending.Len() }

// Retransmissions reports the total number of packet retransmissions.
func (s *Sender) Retransmissions() uint64 { return s.retransmissions }

// Timeouts reports how many times the RTO fired.
func (s *Sender) Timeouts() uint64 { return s.timeouts }

// Recovered reports packets that were acknowledged only after at least
// one retransmission — deliveries the reliability layer actually saved.
func (s *Sender) Recovered() uint64 { return s.recovered }

// Dead reports whether the retransmission budget has been exhausted.
func (s *Sender) Dead() bool { return s.dead }

// CurrentRTO reports the timeout the sender would arm next (including
// any backoff in effect).
func (s *Sender) CurrentRTO() sim.Duration { return s.rto() }

// RTOSamples returns the backed-off timeouts (µs) the adaptive sender
// armed after retransmissions, in firing order. Nil for a fixed-RTO or
// quiescent sender.
func (s *Sender) RTOSamples() []float64 { return s.rtoLog }

// Receiver is the receiving half of a session. deliver hands an in-order
// packet to the upper layer and reports whether it could be buffered; a
// false return suppresses the acknowledgement so the sender retries.
// sendAck transmits a cumulative acknowledgement (next expected seq).
type Receiver struct {
	expected uint32
	deliver  func(Packet) bool
	sendAck  func(ack uint32)

	delivered  uint64
	rejected   uint64
	outOfOrder uint64
	duplicates uint64
}

// NewReceiver creates the receiving half of a session. deliver may be
// nil for a receiver driven only through Classify and Commit.
func NewReceiver(deliver func(Packet) bool, sendAck func(uint32)) *Receiver {
	return &Receiver{deliver: deliver, sendAck: sendAck}
}

// OnPacket processes an arriving data packet: an in-order one goes to
// deliver, which settles it inline.
func (r *Receiver) OnPacket(pkt Packet) {
	if r.Classify(pkt) {
		r.Commit(r.deliver(pkt))
	}
}

// Classify is OnPacket's first half, for an upper layer that cannot
// settle a packet inline (a handler that parks while it delivers). It
// reports whether pkt is the next in-order packet; the caller then
// delivers it and reports the outcome with Commit before it classifies
// another packet. A duplicate or a gap is settled at once: it is counted
// and the cumulative ack re-asserted, and Classify reports false.
func (r *Receiver) Classify(pkt Packet) bool {
	switch {
	case pkt.Seq == r.expected:
		return true
	case pkt.Seq < r.expected:
		// Duplicate of something already delivered (a retransmission
		// after a lost ack): re-acknowledge so the sender advances.
		r.duplicates++
	default:
		// Gap: an earlier packet was lost. Go-back-N discards and
		// re-asserts the cumulative ack.
		r.outOfOrder++
	}
	r.sendAck(r.expected)
	return false
}

// Commit settles the in-order packet Classify passed up. ok acknowledges
// it. !ok means the upper layer had no buffer: the packet is counted
// rejected and not acknowledged, as if it was lost, and the sender's
// timer recovers it.
func (r *Receiver) Commit(ok bool) {
	if !ok {
		r.rejected++
		return
	}
	r.expected++
	r.delivered++
	r.sendAck(r.expected)
}

// Expected reports the next in-order sequence number.
func (r *Receiver) Expected() uint32 { return r.expected }

// Delivered reports packets handed to the upper layer.
func (r *Receiver) Delivered() uint64 { return r.delivered }

// Rejected reports in-order packets the upper layer refused to buffer.
func (r *Receiver) Rejected() uint64 { return r.rejected }

// OutOfOrder reports discarded out-of-order packets.
func (r *Receiver) OutOfOrder() uint64 { return r.outOfOrder }

// Duplicates reports re-acknowledged duplicate packets.
func (r *Receiver) Duplicates() uint64 { return r.duplicates }
