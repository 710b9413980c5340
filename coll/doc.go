// Package coll implements MPI-style collective operations — barrier,
// broadcast, reduce, allreduce, scatter, gather, allgather, all-to-all —
// on top of the public comm API.
//
// The paper positions Push-Pull as the messaging layer for parallel
// programs on COMPs ("a typical compute-then-communicate parallel
// program", §5.3); this package is that program layer: the collectives a
// real application would call, built purely from the point-to-point
// public API (comm.Send/Recv/Isend/Irecv). Collectives inherit whatever
// messaging mode the cluster is configured with, which is what makes
// mode × algorithm ablations at the application level possible.
//
// # Algorithms
//
// Each operation ships with the classic algorithms of the era, selected
// per world (Config via WithConfig) or per call (WithAlgorithm):
//
//	op         algorithms (first = default)      rounds        volume/rank
//	Barrier    dissemination, tree               ⌈log2 n⌉      1 B tokens
//	Bcast      binomial, ring, ring-seg          ≤⌈log2 n⌉ / n-1 / n-1 hops pipelined in ⌈m/S⌉ segments
//	                                             (volume ≤ m·⌈log2 n⌉ / m / m per hop)
//	Reduce     binomial, ring (ordered)          ≤⌈log2 n⌉ / n     m per hop
//	AllReduce  tree, recursive-doubling, ring,   2⌈log2 n⌉ / ⌈log2 n⌉ / 2(n-1) /
//	           rs-ag                             2(n-1) blocks of m/n
//	AllGather  ring, tree                        n-1 / n-1+⌈log2 n⌉
//
// The segmented/long-vector algorithms: ring-seg pipelines the Bcast by
// streaming the vector through the chain in SegmentBytes segments
// (Config.SegmentBytes or WithSegment; DefaultSegmentBytes otherwise),
// keeping every link busy at once; rs-ag reduces 1/n blocks in a ring
// reduce-scatter and then allgathers them, moving 2·(n-1)/n·m bytes per
// rank with no bottleneck rank. Pick them for vectors much larger than
// a segment; the log-round trees stay ahead on short vectors, where
// per-hop latency dominates.
//
// Gather, Scatter and AllToAll have one schedule each (rooted linear
// exchange, and the rotation schedule that pairs distinct partners every
// step).
//
// # Reduction ordering
//
// The tree, recursive-doubling and rs-ag algorithms reorder
// combinations (rs-ag folds each block in rank order starting at the
// block's own index), so Reduce/AllReduce require an associative AND
// commutative Op for algorithm-independent results. The ring algorithm
// is the ordered variant: it always combines contributions as the left
// fold op(...op(op(d0, d1), d2)..., dn-1) in rank order, so
// order-sensitive reductions get one well-defined answer — at the price
// of O(n) rounds. See TestReduceNonCommutativeOpDiverges for the
// divergence the reordering algorithms exhibit.
//
// # Non-blocking collectives
//
// IBarrier/IBcast/IReduce/IAllReduce/IAllGather start the collective and
// return a Request — the comm.Op-style handle — so a rank can overlap
// compute with collective progress:
//
//	req := r.IAllReduce(vec, coll.SumInt64)
//	r.Compute(500_000) // the first round's messages progress meanwhile
//	res, err := req.Wait()
//
// Progression needs no polling: the rank's thread posts the first round,
// and a per-node progression tasklet posts each later round as the
// previous one completes, so a multi-round collective finishes under
// pure compute. Test is a pure poll and Wait parks until completion. All
// Request methods must be called from the rank's own thread. The
// blocking collectives never build a Request: they run the same round
// schedule in a plain loop on the rank's thread.
//
// # Failure propagation
//
// Collectives propagate transport failures instead of hanging on them:
// when the cluster runs with a retransmission budget
// (Options.GBN.MaxRetries) and a peer becomes unreachable, the
// operations of the round in flight fail with an error wrapping
// comm.ErrPeerUnreachable, and Request.Wait/Test (and the blocking
// wrappers) return it — the wrapped *PeerUnreachableError identifies
// the dead node pair, so the failed rank is known. A failed Request is
// done: its rounds stop posting, and WaitAll reports the first failure.
// Ranks that never exchange with the dead peer in the remaining rounds
// may still complete; deciding what to do with a half-failed collective
// is the application's policy, as in MPI.
//
// Each collective travels on its own tag lane (ReservedTag plus a
// per-rank start sequence), so neither point-to-point messages nor
// other in-flight collectives on the same channels can cross-match —
// provided every rank starts its collectives in the same order (the
// usual SPMD requirement) and application tags stay below ReservedTag.
// The matcher enforces the split: comm.AnyTag wildcards only see
// application tags, so even wildcard receives posted while a collective
// is in flight cannot swallow its rounds.
package coll
