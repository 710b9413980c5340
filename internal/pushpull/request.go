package pushpull

import (
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/vm"
)

// Request tracks one outstanding nonblocking operation started with Isend
// or Irecv. Complete it with Wait (blocking) or poll it with Test.
//
// The simulated library implements nonblocking operations the way a
// user-level messaging library on a COMP node would: the operation runs
// on a helper bound to the same CPU as the caller, so its protocol costs
// are still charged to that processor, while the calling thread is free
// to compute — the overlap the paper's §4.1 parallelism argument is
// about, exposed at the API level. The helper is a pooled user task
// (smp.Node.StartTask) running the same send or receive step machine a
// blocking call drives on its own thread.
type Request struct {
	done     sim.Cond
	complete bool
	data     []byte
	status   Status
	err      error
}

// FailedRequest returns a Request that is already complete with err: an
// operation that failed before it started (say, a send posted on an
// incoming channel) surfaces through the normal Wait/Test/Status flow
// instead of a nil handle.
func FailedRequest(err error) *Request {
	return &Request{complete: true, status: Status{Err: err}, err: err}
}

// Isend starts a nonblocking tag-0 send of data (placed at addr in the
// endpoint's space) to process to, returning immediately with a Request.
// The data buffer must not be modified until the request completes.
func (ep *Endpoint) Isend(t *smp.Thread, to ProcessID, addr vm.VirtAddr, data []byte) *Request {
	return ep.IsendOpt(t, to, addr, data, DefaultSendOptions())
}

// IsendOpt is Isend with per-operation options (tag, BTP override).
func (ep *Endpoint) IsendOpt(t *smp.Thread, to ProcessID, addr vm.VirtAddr, data []byte, o SendOptions) *Request {
	t.Exec(ep.stack.Node.Cfg.CallOverhead) // posting cost on the caller
	return ep.isend(0, to, addr, data, o)
}

// Irecv starts a nonblocking receive of the next tag-0 message on channel
// from→ep into addr (bufLen bytes), returning immediately with a Request.
// Wait (or a successful Test) returns the received bytes.
//
// Multiple Irecvs posted by the same process for the same channel bind
// messages in posting order, matching the FIFO channel semantics of
// blocking Recv.
func (ep *Endpoint) Irecv(t *smp.Thread, from ProcessID, addr vm.VirtAddr, bufLen int) *Request {
	return ep.IrecvOpt(t, from, addr, bufLen, RecvOptions{})
}

// IrecvOpt is Irecv with per-operation options; from may be AnySource
// and o.Tag may be AnyTag. The Request's Status reports what matched.
func (ep *Endpoint) IrecvOpt(t *smp.Thread, from ProcessID, addr vm.VirtAddr, bufLen int, o RecvOptions) *Request {
	t.Exec(ep.stack.Node.Cfg.CallOverhead) // posting cost on the caller
	return ep.irecv(0, from, addr, bufLen, o)
}

// IsendAsyncOpt is IsendOpt with no posting thread: the whole operation,
// including the posting cost, runs on the helper task. It exists for
// infrastructure that posts operations from engine context (the
// collective progression tasklet); application code, which always has a
// calling thread, should use IsendOpt so the posting cost lands on the
// caller.
func (ep *Endpoint) IsendAsyncOpt(to ProcessID, addr vm.VirtAddr, data []byte, o SendOptions) *Request {
	return ep.isend(ep.stack.Node.Cfg.CallOverhead, to, addr, data, o)
}

// IrecvAsyncOpt is IrecvOpt with no posting thread (see IsendAsyncOpt).
func (ep *Endpoint) IrecvAsyncOpt(from ProcessID, addr vm.VirtAddr, bufLen int, o RecvOptions) *Request {
	return ep.irecv(ep.stack.Node.Cfg.CallOverhead, from, addr, bufLen, o)
}

// isend runs a send on a helper task, which first pays post: the
// posting cost when no calling thread paid it. Starting the task takes
// one dispatch slot at the current instant, as Engine.Go does.
func (ep *Endpoint) isend(post sim.Duration, to ProcessID, addr vm.VirtAddr, data []byte, o SendOptions) *Request {
	s := ep.stack.newSender(ep, post, to, addr, data, o)
	req := &Request{}
	s.req = req
	ep.stack.Node.StartTask(ep.CPU, s.taskFn)
	return req
}

// irecv runs a receive on a helper task, which first pays post (see
// isend).
func (ep *Endpoint) irecv(post sim.Duration, from ProcessID, addr vm.VirtAddr, bufLen int, o RecvOptions) *Request {
	r := ep.stack.newReceiver(ep, post, from, addr, bufLen, o)
	req := &Request{}
	r.req = req
	ep.stack.Node.StartTask(ep.CPU, r.taskFn)
	return req
}

// finish records the outcome and wakes every waiter. A failed
// operation's Status is normalized to the error form (Valid false, Err
// set) whatever the caller passed.
func (req *Request) finish(data []byte, st Status, err error) {
	if err != nil {
		st = Status{Err: err}
	}
	req.data = data
	req.status = st
	req.err = err
	req.complete = true
	req.done.Broadcast()
}

// Wait parks the calling thread until the operation completes. For a
// receive it returns the received bytes; for a send the data is nil.
func (req *Request) Wait(t *smp.Thread) ([]byte, error) {
	for !req.complete {
		req.done.Wait(t.P)
		t.Exec(t.Node.Cfg.WakeLatency)
	}
	return req.data, req.err
}

// Subscribe registers w (a process or tasklet) for one wake when the
// operation completes; it reports false, without registering, if the
// operation is already complete. The completion cond is broadcast, never
// signalled, so a subscription can coexist with other subscribers and
// with threads parked in Wait.
func (req *Request) Subscribe(w sim.Waiter) bool {
	if req.complete {
		return false
	}
	req.done.Await(w)
	return true
}

// Test reports whether the operation has completed, without blocking.
// Once it returns true, the data and error are the operation's outcome.
func (req *Request) Test() (bool, []byte, error) {
	if !req.complete {
		return false, nil, nil
	}
	return true, req.data, req.err
}

// Status reports the completed operation's envelope: for a receive, the
// source and tag that matched (informative after AnySource / AnyTag).
// Status.Valid is false until the request completes, and a failed
// request's Status carries the error in Err instead of an envelope.
func (req *Request) Status() Status { return req.status }

// WaitAll completes every request in order and returns the first error.
func WaitAll(t *smp.Thread, reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}
