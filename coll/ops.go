package coll

import (
	"fmt"

	"pushpull/comm"
)

// Op combines two reduction operands into one. The binomial-tree and
// recursive-doubling algorithms reorder combinations freely, so ops must
// be associative AND commutative for an algorithm-independent result;
// the Ring algorithm is the ordered alternative (a left fold in rank
// order) when order matters. Ops must not retain their arguments.
type Op func(a, b []byte) []byte

// checkRoot validates a root rank.
func (r *Rank) checkRoot(what string, root int) {
	if root < 0 || root >= r.Size() {
		panic(fmt.Sprintf("coll: %s root %d out of range", what, root))
	}
}

// collSend/collRecv/collSendRecv carry the blocking collectives'
// internal traffic on the operation's own reserved tag lane, like the
// Request engine's rounds, so neither concurrent application
// point-to-point calls (tag 0 by default) nor other collectives can
// cross-match its data.
func (r *Rank) collSend(tag, to int, data []byte) { r.Send(to, data, comm.WithTag(tag)) }

func (r *Rank) collRecv(tag, from, n int) []byte {
	return r.Recv(from, n, comm.WithTag(tag))
}

func (r *Rank) collSendRecv(tag, to int, data []byte, from, n int) []byte {
	return r.SendRecv(to, data, from, n, comm.WithTag(tag))
}

// Each of Barrier, Bcast, Reduce, AllReduce and AllGather has one
// *Sched constructor resolving its algorithm to a stepper, and two
// drivers: the blocking call runs the stepper on the rank's thread
// (Rank.run), the I* call starts a Request the World's progression
// tasklet drives (Rank.start). Keeping the blocking collectives off the
// progression path keeps their event schedule (and so scenario digests)
// identical to a world that never runs a nonblocking collective.

// IBarrier starts a nonblocking barrier: its Request completes once
// every rank has entered the barrier.
func (r *Rank) IBarrier(opts ...Opt) *Request {
	return r.start(r.barrierSched(opts))
}

func (r *Rank) barrierSched(opts []Opt) stepper {
	if r.algorithm(OpBarrier, opts) == Tree {
		return r.barrierTree()
	}
	return r.barrierDissemination()
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier(opts ...Opt) {
	r.run("barrier", r.barrierSched(opts))
}

// IBcast starts a nonblocking broadcast of root's data; the Request's
// result is the received copy (root completes with data itself). Every
// rank must pass the same n, the message length; non-root ranks may
// pass nil data.
func (r *Rank) IBcast(root int, data []byte, n int, opts ...Opt) *Request {
	return r.start(r.bcastSched(root, data, n, opts))
}

func (r *Rank) bcastSched(root int, data []byte, n int, opts []Opt) stepper {
	r.checkRoot("bcast", root)
	if r.id == root && len(data) != n {
		panic(fmt.Sprintf("coll: bcast root has %d bytes, promised %d", len(data), n))
	}
	switch r.algorithm(OpBcast, opts) {
	case Ring:
		return r.bcastRing(root, data, n)
	case RingSegmented:
		return r.bcastRingSeg(root, data, n, r.segment(opts))
	default:
		return r.bcastBinomial(root, data, n)
	}
}

// Bcast distributes root's data to every rank and returns the received
// copy (root returns data itself).
func (r *Rank) Bcast(root int, data []byte, n int, opts ...Opt) []byte {
	return r.run("bcast", r.bcastSched(root, data, n, opts))
}

// IReduce starts a nonblocking reduction of every rank's data with op;
// the Request's result lands on root (other ranks complete with nil).
// All contributions must have the same length.
func (r *Rank) IReduce(root int, data []byte, op Op, opts ...Opt) *Request {
	return r.start(r.reduceSched(root, data, op, opts))
}

func (r *Rank) reduceSched(root int, data []byte, op Op, opts []Opt) stepper {
	r.checkRoot("reduce", root)
	if r.algorithm(OpReduce, opts) == Ring {
		return r.reduceRing(root, data, op)
	}
	return r.reduceBinomial(root, data, op)
}

// Reduce combines every rank's data with op; the result lands on root
// (other ranks return nil).
func (r *Rank) Reduce(root int, data []byte, op Op, opts ...Opt) []byte {
	return r.run("reduce", r.reduceSched(root, data, op, opts))
}

// IAllReduce starts a nonblocking allreduce; every rank's Request
// completes with the combined result.
func (r *Rank) IAllReduce(data []byte, op Op, opts ...Opt) *Request {
	return r.start(r.allReduceSched(data, op, opts))
}

func (r *Rank) allReduceSched(data []byte, op Op, opts []Opt) stepper {
	switch r.algorithm(OpAllReduce, opts) {
	case RecursiveDoubling:
		return r.allReduceRD(data, op)
	case RSAG:
		return r.allReduceRSAG(data, op)
	case Ring:
		last := r.Size() - 1
		return then(r.reduceRing(last, data, op), func(res []byte) stepper {
			return r.bcastRing(last, res, len(data))
		})
	default: // Tree: reduce to rank 0 plus broadcast.
		return then(r.reduceBinomial(0, data, op), func(res []byte) stepper {
			return r.bcastBinomial(0, res, len(data))
		})
	}
}

// AllReduce combines every rank's data with op and returns the result
// on every rank.
func (r *Rank) AllReduce(data []byte, op Op, opts ...Opt) []byte {
	return r.run("allreduce", r.allReduceSched(data, op, opts))
}

// IAllGather starts a nonblocking allgather of every rank's n-byte
// contribution; the Request's result is the rank-major concatenation
// (rank i's block at [i*n : (i+1)*n]). AllGather splits it.
func (r *Rank) IAllGather(data []byte, n int, opts ...Opt) *Request {
	return r.start(r.allGatherSched(data, n, opts))
}

func (r *Rank) allGatherSched(data []byte, n int, opts []Opt) stepper {
	if len(data) != n {
		panic(fmt.Sprintf("coll: allgather contribution has %d bytes, promised %d", len(data), n))
	}
	if r.algorithm(OpAllGather, opts) == Tree {
		return r.allGatherTree(data, n)
	}
	return r.allGatherRing(data, n)
}

// AllGather collects every rank's n-byte contribution on every rank,
// indexed by rank.
func (r *Rank) AllGather(data []byte, n int, opts ...Opt) [][]byte {
	concat := r.run("allgather", r.allGatherSched(data, n, opts))
	size := r.Size()
	out := make([][]byte, size)
	for i := 0; i < size; i++ {
		out[i] = concat[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// Gather collects every rank's data on root, which returns the
// contributions indexed by rank (other ranks return nil). All
// contributions must have length n.
func (r *Rank) Gather(root int, data []byte, n int) [][]byte {
	r.checkRoot("gather", root)
	size := r.Size()
	tag := r.nextCollTag()
	if r.id != root {
		r.collSend(tag, root, data)
		return nil
	}
	out := make([][]byte, size)
	out[r.id] = append([]byte(nil), data...)
	// Receive in rank order; FIFO channels make this deterministic.
	for from := 0; from < size; from++ {
		if from == root {
			continue
		}
		out[from] = r.collRecv(tag, from, n)
	}
	return out
}

// Scatter distributes root's per-rank chunks; every rank returns its own
// chunk. Every rank must pass the same n, the chunk length; non-root
// ranks may pass nil chunks.
func (r *Rank) Scatter(root int, chunks [][]byte, n int) []byte {
	r.checkRoot("scatter", root)
	size := r.Size()
	tag := r.nextCollTag()
	if r.id == root {
		if len(chunks) != size {
			panic(fmt.Sprintf("coll: scatter root has %d chunks for %d ranks", len(chunks), size))
		}
		for to := 0; to < size; to++ {
			if to != root {
				r.collSend(tag, to, chunks[to])
			}
		}
		return append([]byte(nil), chunks[root]...)
	}
	return r.collRecv(tag, root, n)
}

// AllToAll sends blocks[j] to rank j and returns the blocks received,
// indexed by source rank. All blocks must have length n. The rotation
// schedule pairs distinct partners each step, so no two messages to the
// same destination ever contend.
func (r *Rank) AllToAll(blocks [][]byte, n int) [][]byte {
	size := r.Size()
	if len(blocks) != size {
		panic(fmt.Sprintf("coll: alltoall has %d blocks for %d ranks", len(blocks), size))
	}
	out := make([][]byte, size)
	out[r.id] = append([]byte(nil), blocks[r.id]...)
	tag := r.nextCollTag()
	for step := 1; step < size; step++ {
		dst := (r.id + step) % size
		src := (r.id - step + size) % size
		out[src] = r.collSendRecv(tag, dst, blocks[dst], src, n)
	}
	return out
}
