package comm

import (
	"fmt"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/smp"
	"pushpull/internal/vm"
)

// Re-exported protocol types: comm is the public surface, but identities
// and addresses are shared with the stack underneath.
type (
	// ProcessID names one communicating process (node, proc).
	ProcessID = pushpull.ProcessID
	// ChannelID is one directed sender→receiver pair.
	ChannelID = pushpull.ChannelID
	// Status reports what a completed receive matched (source, tag);
	// Status.Valid separates a real envelope from the zero value of a
	// failed or uncompleted operation, whose error lands in Status.Err.
	Status = pushpull.Status
	// Thread is the calling SMP thread every operation charges.
	Thread = smp.Thread
	// VirtAddr is a virtual address in the process's space (WithBuffer).
	VirtAddr = vm.VirtAddr
)

// AnyTag makes a receive match messages of every *application* tag —
// tags below ReservedTag. Reserved-tag traffic (collective rounds in
// package coll) never matches a wildcard, so an AnyTag receive posted
// while a collective is in flight cannot swallow its rounds.
const AnyTag = pushpull.AnyTag

// ReservedTag is the base of the reserved tag space used by
// infrastructure layered on comm (package coll runs each collective on
// its own reserved lane). Application tags must stay below it.
const ReservedTag = pushpull.ReservedTag

// AnySource makes a receive match messages from every sender.
var AnySource = pushpull.AnySource

// Option tunes one operation. Options compose left to right.
//
// An Option is plain data, not a closure over the operation's settings:
// folding closures would move the settings to the heap on every call
// that passes one.
type Option struct {
	set optField
	n   int
	buf VirtAddr
}

// optField names the setting an Option carries; the zero Option sets
// nothing.
type optField uint8

const (
	optTag optField = iota + 1
	optBTP
	optBuf
)

type opConfig struct {
	tag    int
	btp    int // -1: protocol default
	buf    VirtAddr
	hasBuf bool
}

// resolve folds opts over the defaults.
func resolve(opts []Option) opConfig {
	cfg := opConfig{tag: 0, btp: -1}
	for _, o := range opts {
		switch o.set {
		case optTag:
			cfg.tag = o.n
		case optBTP:
			cfg.btp = o.n
		case optBuf:
			cfg.buf, cfg.hasBuf = o.buf, true
		}
	}
	return cfg
}

// WithTag labels a send, or narrows a receive, to the given tag.
// Receives default to tag 0; pass AnyTag to match every tag.
func WithTag(tag int) Option { return Option{set: optTag, n: tag} }

// WithBTP overrides the internode Push-Pull Bytes-To-Push for one send
// (clamped to [0, len(data)]). Ignored by receives and by the modes
// whose BTP is their defining constant (Push-Zero, Push-All,
// three-phase).
func WithBTP(btp int) Option { return Option{set: optBTP, n: btp} }

// WithBuffer uses the caller-registered buffer at addr instead of the
// channel's managed staging buffer. The region must come from Comm.Alloc
// and be large enough for the operation.
func WithBuffer(addr VirtAddr) Option { return Option{set: optBuf, buf: addr} }

// Comm is one process's messaging handle: the factory for its directed
// Channels and the home of the convenience calls that route through
// them.
type Comm struct {
	ep *pushpull.Endpoint
	tx map[ProcessID]*Channel
	rx map[ProcessID]*Channel
}

// Attach wraps a protocol endpoint in the public API. The handle is
// memoized on the endpoint: repeated Attach (or At) calls for the same
// process return the same Comm, so its channel cache and staging
// buffers are shared by every caller.
func Attach(ep *pushpull.Endpoint) *Comm {
	if c, ok := ep.APIHandle().(*Comm); ok {
		return c
	}
	c := &Comm{
		ep: ep,
		tx: make(map[ProcessID]*Channel),
		rx: make(map[ProcessID]*Channel),
	}
	ep.SetAPIHandle(c)
	return c
}

// At returns the Comm of process proc on node — the usual way to get
// handles from a built cluster.
func At(c *cluster.Cluster, node, proc int) *Comm {
	return Attach(c.Endpoint(node, proc))
}

// ID reports this process's identity.
func (c *Comm) ID() ProcessID { return c.ep.ID }

// Endpoint exposes the wrapped protocol endpoint (for stack-level
// statistics; application code should not need it).
func (c *Comm) Endpoint() *pushpull.Endpoint { return c.ep }

// Alloc reserves a page-aligned registered buffer in the process's
// address space, for use with WithBuffer.
func (c *Comm) Alloc(n int) VirtAddr { return c.ep.Alloc(n) }

// To returns the outgoing channel this process → peer, creating it on
// first use. Channels are cached: repeated calls return the same handle
// (and therefore the same managed staging buffer).
func (c *Comm) To(peer ProcessID) *Channel {
	if ch := c.tx[peer]; ch != nil {
		return ch
	}
	if peer == AnySource {
		panic("comm: To(AnySource) — sends need a concrete destination")
	}
	ch := &Channel{c: c, peer: peer, out: true}
	c.tx[peer] = ch
	return ch
}

// From returns the incoming channel peer → this process, creating it on
// first use. peer may be AnySource for a wildcard receive channel.
func (c *Comm) From(peer ProcessID) *Channel {
	if ch := c.rx[peer]; ch != nil {
		return ch
	}
	ch := &Channel{c: c, peer: peer, out: false}
	c.rx[peer] = ch
	return ch
}

// Send transmits data to peer, blocking until the local send completes
// (the push phase; any pull proceeds asynchronously).
func (c *Comm) Send(t *Thread, to ProcessID, data []byte, opts ...Option) error {
	return c.To(to).Send(t, data, opts...)
}

// Recv blocks until the next eligible message from peer (or AnySource)
// arrives, and returns its bytes. maxLen bounds the accepted size.
func (c *Comm) Recv(t *Thread, from ProcessID, maxLen int, opts ...Option) ([]byte, error) {
	return c.From(from).Recv(t, maxLen, opts...)
}

// Isend starts a nonblocking send to peer and returns its Op.
func (c *Comm) Isend(t *Thread, to ProcessID, data []byte, opts ...Option) *Op {
	return c.To(to).Isend(t, data, opts...)
}

// Irecv starts a nonblocking receive from peer (or AnySource) and
// returns its Op.
func (c *Comm) Irecv(t *Thread, from ProcessID, maxLen int, opts ...Option) *Op {
	return c.From(from).Irecv(t, maxLen, opts...)
}

// IsendAsync is Isend with no posting thread: the posting cost is
// charged to the helper task that runs the operation. It exists for
// infrastructure that posts from engine context (the collective
// progression tasklet); application code should use Isend.
func (c *Comm) IsendAsync(to ProcessID, data []byte, opts ...Option) *Op {
	return c.To(to).IsendAsync(data, opts...)
}

// IrecvAsync is Irecv with no posting thread (see IsendAsync).
func (c *Comm) IrecvAsync(from ProcessID, maxLen int, opts ...Option) *Op {
	return c.From(from).IrecvAsync(maxLen, opts...)
}

// Channel is one directed channel as seen from this process: outgoing
// (Comm.To) or incoming (Comm.From). It owns a managed staging buffer
// that grows by doubling and is reused across operations, mirroring a
// real application's registered communication buffer.
type Channel struct {
	c      *Comm
	peer   ProcessID
	out    bool
	buf    VirtAddr
	bufCap int
}

// Peer reports the remote end (AnySource for a wildcard receive
// channel).
func (ch *Channel) Peer() ProcessID { return ch.peer }

// ID reports the directed channel identity; meaningless for wildcard
// receive channels.
func (ch *Channel) ID() ChannelID {
	if ch.out {
		return ChannelID{From: ch.c.ep.ID, To: ch.peer}
	}
	return ChannelID{From: ch.peer, To: ch.c.ep.ID}
}

// buffer returns a registered staging address of at least n bytes,
// growing the managed buffer by doubling (from 1 KB) when needed.
func (ch *Channel) buffer(n int) VirtAddr {
	if n == 0 {
		return ch.buf // translation is skipped for empty transfers
	}
	if ch.bufCap < n {
		grown := ch.bufCap * 2
		if grown < 1024 {
			grown = 1024
		}
		for grown < n {
			grown *= 2
		}
		ch.buf = ch.c.ep.Alloc(grown)
		ch.bufCap = grown
	}
	return ch.buf
}

// addr resolves the operation's buffer: WithBuffer wins, otherwise the
// managed staging buffer.
func (ch *Channel) addr(cfg opConfig, n int) VirtAddr {
	if cfg.hasBuf {
		return cfg.buf
	}
	return ch.buffer(n)
}

// Send transmits data on this outgoing channel, blocking until the local
// send completes. Zero-length data is valid and carries only the
// envelope.
func (ch *Channel) Send(t *Thread, data []byte, opts ...Option) error {
	if !ch.out {
		return fmt.Errorf("comm: send on incoming channel %v", ch.ID())
	}
	cfg := resolve(opts)
	return ch.c.ep.SendOpt(t, ch.peer, ch.addr(cfg, len(data)), data,
		pushpull.SendOptions{Tag: cfg.tag, BTP: cfg.btp})
}

// Recv blocks until the next eligible message arrives and returns its
// bytes (at most maxLen).
func (ch *Channel) Recv(t *Thread, maxLen int, opts ...Option) ([]byte, error) {
	b, _, err := ch.RecvMsg(t, maxLen, opts...)
	return b, err
}

// RecvMsg is Recv plus the matched envelope — which sender and tag the
// message carried, informative for AnySource / AnyTag receives.
func (ch *Channel) RecvMsg(t *Thread, maxLen int, opts ...Option) ([]byte, Status, error) {
	if ch.out {
		return nil, Status{}, fmt.Errorf("comm: receive on outgoing channel %v", ch.ID())
	}
	cfg := resolve(opts)
	return ch.c.ep.RecvOpt(t, ch.peer, ch.addr(cfg, maxLen), maxLen,
		pushpull.RecvOptions{Tag: cfg.tag})
}

// Isend starts a nonblocking send on this outgoing channel and returns
// its Op. The data must not be modified until the Op completes.
func (ch *Channel) Isend(t *Thread, data []byte, opts ...Option) *Op {
	if !ch.out {
		return pushpull.FailedRequest(fmt.Errorf("comm: send on incoming channel %v", ch.ID()))
	}
	cfg := resolve(opts)
	return ch.c.ep.IsendOpt(t, ch.peer, ch.addr(cfg, len(data)), data,
		pushpull.SendOptions{Tag: cfg.tag, BTP: cfg.btp})
}

// Irecv starts a nonblocking receive on this incoming channel and
// returns its Op.
func (ch *Channel) Irecv(t *Thread, maxLen int, opts ...Option) *Op {
	if ch.out {
		return pushpull.FailedRequest(fmt.Errorf("comm: receive on outgoing channel %v", ch.ID()))
	}
	cfg := resolve(opts)
	return ch.c.ep.IrecvOpt(t, ch.peer, ch.addr(cfg, maxLen), maxLen,
		pushpull.RecvOptions{Tag: cfg.tag})
}

// IsendAsync starts a nonblocking send with no posting thread (see
// Comm.IsendAsync).
func (ch *Channel) IsendAsync(data []byte, opts ...Option) *Op {
	if !ch.out {
		return pushpull.FailedRequest(fmt.Errorf("comm: send on incoming channel %v", ch.ID()))
	}
	cfg := resolve(opts)
	return ch.c.ep.IsendAsyncOpt(ch.peer, ch.addr(cfg, len(data)), data,
		pushpull.SendOptions{Tag: cfg.tag, BTP: cfg.btp})
}

// IrecvAsync starts a nonblocking receive with no posting thread (see
// Comm.IsendAsync).
func (ch *Channel) IrecvAsync(maxLen int, opts ...Option) *Op {
	if ch.out {
		return pushpull.FailedRequest(fmt.Errorf("comm: receive on outgoing channel %v", ch.ID()))
	}
	cfg := resolve(opts)
	return ch.c.ep.IrecvAsyncOpt(ch.peer, ch.addr(cfg, maxLen), maxLen,
		pushpull.RecvOptions{Tag: cfg.tag})
}
