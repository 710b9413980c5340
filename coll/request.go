package coll

import (
	"fmt"

	"pushpull/comm"
	"pushpull/internal/sim"
)

// ReservedTag is the base of the tag space collective rounds travel
// under: the k-th collective a rank starts uses tag ReservedTag+k.
// Keeping collective traffic on its own tag lanes is what lets a rank
// mix point-to-point calls (which default to tag 0) with in-flight
// collectives on the same channels without cross-matching, and the
// per-collective sequence keeps even several outstanding non-blocking
// collectives apart — provided every rank starts its collectives in
// the same order (the usual SPMD requirement). Application tags must
// stay below ReservedTag; the matcher enforces the split, so even
// wildcard AnyTag receives posted while a collective is in flight only
// see application traffic, never collective rounds.
const ReservedTag = comm.ReservedTag

// A collective is expressed as a sequence of rounds. Each round posts
// all its sends (nonblocking) and then all its receives; the round
// completes when every operation has. Sequencing rounds — rather than
// issuing everything up front — is what lets receive data feed the next
// round's sends (the reduce combines, the allgather block rotation).

// msg is one outgoing message of a round; rcv one expected arrival.
type msg struct {
	to   int
	data []byte
}

type rcv struct {
	from int
	n    int
}

type round struct {
	sends []msg
	recvs []rcv
}

// stepper generates rounds one at a time. got holds the previous
// round's received payloads in recvs order (nil before the first
// round). done=true ends the collective with result (nil for
// result-less ops and non-root ranks).
type stepper func(got [][]byte) (next round, result []byte, done bool)

// sched builds steppers by chaining phases: each phase's after-hook
// runs when its round completes and pushes the successor phase(s), so
// data-dependent rounds are built from actually-received bytes.
type sched struct {
	queue []phase
	res   []byte
}

type phase struct {
	rd    round
	after func(got [][]byte)
}

func (s *sched) push(rd round, after func(got [][]byte)) {
	s.queue = append(s.queue, phase{rd: rd, after: after})
}

func (s *sched) stepper() stepper {
	var pending func(got [][]byte)
	return func(got [][]byte) (round, []byte, bool) {
		if pending != nil {
			f := pending
			pending = nil
			f(got)
		}
		if len(s.queue) == 0 {
			return round{}, s.res, true
		}
		ph := s.queue[0]
		s.queue = s.queue[1:]
		pending = ph.after
		return ph.rd, nil, false
	}
}

// then runs a to completion, then the stepper makeB builds from a's
// result — the composition behind reduce-then-broadcast AllReduce,
// gather-then-broadcast AllGather and the tree Barrier.
func then(a stepper, makeB func(res []byte) stepper) stepper {
	var b stepper
	return func(got [][]byte) (round, []byte, bool) {
		for {
			if b != nil {
				return b(got)
			}
			rd, res, done := a(got)
			if !done {
				return rd, nil, false
			}
			b = makeB(res)
			got = nil
		}
	}
}

// next advances st past empty rounds (ranks idle in a phase) to the
// next round with operations to post, or to the collective's end.
func (st stepper) next(got [][]byte) (round, []byte, bool) {
	for {
		rd, res, done := st(got)
		if done || len(rd.sends) > 0 || len(rd.recvs) > 0 {
			return rd, res, done
		}
		got = nil
	}
}

// post issues a round's operations from the rank's thread, which pays
// their posting costs, reusing the sends and recvs slices.
func (r *Rank) post(tag int, rd round, sends, recvs []*comm.Op) ([]*comm.Op, []*comm.Op) {
	sends, recvs = sends[:0], recvs[:0]
	for _, m := range rd.sends {
		sends = append(sends, r.cm.Isend(r.t, r.peer(m.to), m.data, comm.WithTag(tag)))
	}
	for _, v := range rd.recvs {
		recvs = append(recvs, r.cm.Irecv(r.t, r.peer(v.from), v.n, comm.WithTag(tag)))
	}
	return sends, recvs
}

// run drives a blocking collective on the rank's own thread: it posts
// each round, waits for the receives and then the sends, and feeds the
// received data to the next round. A transport failure panics with rank
// context (collectives are programming errors when they fail, not
// runtime conditions); the panic value wraps the failure, so a
// recovering harness can still classify it with errors.Is.
func (r *Rank) run(what string, st stepper) []byte {
	tag := r.nextCollTag()
	var sends, recvs []*comm.Op
	var got [][]byte
	for {
		rd, res, done := st.next(got)
		if done {
			return res
		}
		sends, recvs = r.post(tag, rd, sends, recvs)
		got = make([][]byte, len(recvs))
		for i, op := range recvs {
			data, err := op.Wait(r.t)
			if err != nil {
				panic(fmt.Errorf("coll: rank %d %s: %w", r.id, what, err))
			}
			got[i] = data
		}
		for _, op := range sends {
			if _, err := op.Wait(r.t); err != nil {
				panic(fmt.Errorf("coll: rank %d %s: %w", r.id, what, err))
			}
		}
	}
}

// Request is a nonblocking collective in flight, returned by the I*
// calls. Complete it with Wait (blocking) or poll it with Test;
// completing more than once returns the same outcome. All methods must
// be called from the owning rank's thread.
//
// The World's progression tasklet drives every Request: as each round's
// operations complete, the tasklet posts the next round, so multi-round
// collectives keep moving while the application computes — no Test
// polling required.
type Request struct {
	r      *Rank
	step   stepper
	tag    int // this collective's lane in the reserved tag space
	sends  []*comm.Op
	recvs  []*comm.Op
	result []byte
	err    error
	done   bool
	doneC  *sim.Cond // completion broadcast, which Wait parks on
}

// start begins a nonblocking collective on its own tag lane: it posts
// the first round on the rank's thread (which pays its posting costs)
// and hands the Request to the node's progression tasklet, which posts
// the later rounds.
func (r *Rank) start(st stepper) *Request {
	rq := &Request{r: r, step: st, tag: r.nextCollTag()}
	rd, res, done := st.next(nil)
	if done {
		rq.result, rq.done = res, true // e.g. a single-rank world: nothing to drive
		return rq
	}
	rq.sends, rq.recvs = r.post(rq.tag, rd, nil, nil)
	// The completion cond lives on the rank's node: Broadcast runs from
	// the node's progression tasklet and Wait parks the rank's own
	// thread.
	rq.doneC = sim.NewNamedCond(r.w.c.Nodes[r.cm.ID().Node].Engine, fmt.Sprintf("coll-done/r%d.t%d", r.id, rq.tag))
	r.w.enqueueProgress(rq)
	return rq
}

// advance feeds the previous round's receives to the stepper and posts
// the next round. It runs on the progression tasklet, where there is no
// rank thread to charge, so it posts through the async variants and the
// posting cost lands on the operations' helper tasks instead.
func (rq *Request) advance(got [][]byte) {
	rd, res, done := rq.step.next(got)
	if done {
		rq.finish(res, nil)
		return
	}
	rq.sends, rq.recvs = rq.sends[:0], rq.recvs[:0]
	for _, m := range rd.sends {
		rq.sends = append(rq.sends, rq.r.cm.IsendAsync(rq.r.peer(m.to), m.data, comm.WithTag(rq.tag)))
	}
	for _, v := range rd.recvs {
		rq.recvs = append(rq.recvs, rq.r.cm.IrecvAsync(rq.r.peer(v.from), v.n, comm.WithTag(rq.tag)))
	}
}

// subscribe registers w for a wake when any still-pending operation of
// the round in flight completes. Operation conds are broadcast-only, so
// the registrations coexist with each other and with parked waiters.
func (rq *Request) subscribe(w sim.Waiter) {
	for _, ops := range [2][]*comm.Op{rq.sends, rq.recvs} {
		for _, op := range ops {
			op.Subscribe(w)
		}
	}
}

// pump drives the Request one step from the progression tasklet: if the
// round in flight has fully completed, it posts the next round and
// subscribes w to it. It reports true once the collective is done, false
// while rounds remain — in which case w stays subscribed to the pending
// operations and will be woken again.
func (rq *Request) pump(w sim.Waiter) bool {
	if rq.done {
		return true
	}
	for _, ops := range [2][]*comm.Op{rq.sends, rq.recvs} {
		for _, op := range ops {
			done, _, err := op.Test()
			if err != nil {
				rq.finish(nil, err)
				return true
			}
			if !done {
				return false
			}
		}
	}
	got := make([][]byte, len(rq.recvs))
	for i, op := range rq.recvs {
		_, data, _ := op.Test()
		got[i] = data
	}
	rq.advance(got)
	if rq.done {
		return true
	}
	rq.subscribe(w)
	return false
}

// finish ends the collective with its result or failure and broadcasts
// doneC to release waiters.
func (rq *Request) finish(res []byte, err error) {
	rq.result, rq.err, rq.done = res, err, true
	rq.sends, rq.recvs = nil, nil
	rq.doneC.Broadcast()
}

// Wait parks the rank until the collective completes and returns its
// result: the received data for IBcast, the reduction on participating
// ranks for IReduce/IAllReduce, the rank-major concatenation for
// IAllGather, nil for IBarrier.
func (rq *Request) Wait() ([]byte, error) {
	for !rq.done {
		rq.doneC.Wait(rq.r.t.P)
		rq.r.t.Exec(rq.r.t.Node.Cfg.WakeLatency)
	}
	return rq.result, rq.err
}

// Test reports whether the collective has completed, without blocking.
// The progression tasklet advances the rounds in the background, so
// Test is a pure poll — calling it inside compute phases is never
// needed for progress, only for checking.
func (rq *Request) Test() (bool, []byte, error) {
	return rq.done, rq.result, rq.err
}

// WaitAll completes every Request in order and returns the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, rq := range reqs {
		if _, err := rq.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
