// Package comm is the public messaging API of the Push-Pull simulator:
// the one way application code — collectives, scenario patterns, the
// bench harness and the examples — talks to the protocol stack.
//
// # Model
//
// Every communicating process holds a Comm (obtain one with At, from a
// built cluster, or Attach, from a raw endpoint). The core object is the
// Channel: one *directed* sender→receiver pair, obtained with Comm.To
// (outgoing) or Comm.From (incoming). Each internode channel is backed
// by its own go-back-N sessions — a data lane for fragments and a
// control lane for pull requests — so loss, refusal or backpressure on
// one channel never head-of-line-blocks another. That per-channel
// isolation is what retires the shared-stream RTO livelock: a refused
// fully-eager fragment stalls only its own channel, and the pushed
// buffer keeps draining through the others until the retransmission
// lands.
//
// # Operations
//
// Send and Recv block the calling thread in virtual time exactly like
// the paper's calls; Isend and Irecv return an Op immediately and run
// the operation on a helper of the same CPU (a pooled task running the
// same send or receive body a blocking call runs). Op is the single
// request type: Wait blocks until completion, Test polls, WaitAll
// completes a batch, and Status reports the matched source and tag.
//
// Operations take options instead of positional protocol arguments:
//
//   - WithTag(k) labels a send or narrows a receive to tag k (receives
//     default to tag 0; AnyTag matches every tag).
//   - WithBTP(n) overrides the internode Push-Pull Bytes-To-Push for one
//     send — the paper's §3 "applications can dynamically change the
//     size of the pushed buffer" knob, per message.
//   - WithBuffer(addr) uses a caller-registered buffer instead of the
//     channel's managed staging buffer.
//
// Receives may name AnySource instead of a concrete peer; RecvMsg (or
// Op.Status) reports which sender and tag actually matched. Matching is
// FIFO within one (channel, tag) lane; wildcards bind the eligible
// message that started arriving first. Zero-length messages are valid
// and carry only their envelope.
//
// # Failure semantics
//
// With a retransmission budget configured (Options.GBN.MaxRetries), a
// peer whose link stays dead long enough is declared unreachable rather
// than retried forever. The failure is structured and total: every
// operation bound to the dead peer — in-flight receives, mid-transfer
// messages, parked synchronous senders — completes with an error
// wrapping ErrPeerUnreachable, Op.Status carries it in Status.Err, and
// later operations naming the peer fail immediately. Without a budget
// (MaxRetries zero, the default) the transport retries forever, exactly
// like the paper's fixed-RTO implementation.
//
// # Buffers
//
// A Channel manages a registered, page-aligned staging buffer that grows
// by doubling, so ordinary callers never touch the address space; the
// simulation still charges every translation and copy the buffer's pages
// cost. Callers that want explicit placement (e.g. to model reuse of a
// pinned region) allocate with Comm.Alloc and pass WithBuffer.
package comm
