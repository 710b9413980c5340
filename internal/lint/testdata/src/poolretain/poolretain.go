// Package poolretain exercises the poolretain analyzer: once a pooled
// object is back on its free list, no new reference to it may be
// stored.
package poolretain

// event is a local stand-in for the engine's pooled event record.
type event struct {
	fn  func()
	seq uint64
}

type engine struct {
	free []*event
	heap []*event
	last *event
	byID map[uint64]*event
}

// release hands ev back to the free list — the append into e.free is
// the release, not a retention.
func (e *engine) release(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

func (e *engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

func (e *engine) fieldAfterRelease(ev *event) {
	e.release(ev)
	e.last = ev // want `after it was released`
}

func (e *engine) appendAfterRelease(ev *event) {
	e.release(ev)
	e.heap = append(e.heap, ev) // want `after it was released`
}

func (e *engine) mapAfterRelease(ev *event) {
	e.release(ev)
	e.byID[ev.seq] = ev // want `after it was released`
}

func (e *engine) acknowledged(ev *event) {
	e.release(ev)
	//pushpull:lint-allow poolretain debug breadcrumb; cleared before the pool can recycle the entry
	e.last = ev
}

// clean: read what you need, then release last.
func (e *engine) fire(ev *event) {
	fn := ev.fn
	e.release(ev)
	fn()
}

// clean: rebinding the variable starts a fresh lifetime.
func (e *engine) recycleOne(ev *event) {
	e.release(ev)
	ev = e.alloc()
	e.last = ev
}

// carrier is a local stand-in for the engine's pooled process carrier:
// its release is the append onto the idle list.
type carrier struct {
	owner *int
}

type carrierEngine struct {
	idle    []*carrier
	running []*carrier
	last    *carrier
}

func (e *carrierEngine) finish(c *carrier) {
	c.owner = nil
	e.idle = append(e.idle, c)
	e.last = c // want `after it was released`
}

func (e *carrierEngine) finishTwice(c *carrier) {
	e.idle = append(e.idle, c)
	e.running = append(e.running, c) // want `after it was released`
}

// clean: the carrier is handed back last.
func (e *carrierEngine) finishClean(c *carrier) {
	e.last = c
	e.idle = append(e.idle, c)
}

// irqJob is a local stand-in for the interrupt controller's pooled
// handler record.
type irqJob struct {
	handler func()
}

type controller struct {
	free    []*irqJob
	pending map[int]*irqJob
}

func (ic *controller) done(j *irqJob) {
	j.handler = nil
	ic.free = append(ic.free, j)
	ic.pending[0] = j // want `after it was released`
}

// clean: read the handler, release, then run it.
func (ic *controller) run(j *irqJob) {
	h := j.handler
	ic.free = append(ic.free, j)
	h()
}

// delivery is a local stand-in for ether's pooled frame-delivery record.
type delivery struct {
	frame int
}

type deliveries struct {
	free []*delivery
}

type hop struct {
	d *delivery
}

func (ds *deliveries) deliver(d *delivery) hop {
	ds.free = append(ds.free, d)
	return hop{d: d} // want `after it was released`
}

// clean: copy the frame out before the record goes back.
func (ds *deliveries) deliverClean(d *delivery) int {
	f := d.frame
	ds.free = append(ds.free, d)
	return f
}

// Task is a local stand-in for smp's pooled handler task, recycled by
// the interrupt controller when its handler is done.
type Task struct {
	body func(*Task) bool
}

type irqController struct {
	freeTasks []*Task
	current   *Task
}

func (ic *irqController) finish(t *Task) {
	t.body = nil
	ic.freeTasks = append(ic.freeTasks, t)
	ic.current = t // want `after it was released`
}

// clean: the task is handed back last.
func (ic *irqController) finishClean(t *Task) {
	ic.current = nil
	t.body = nil
	ic.freeTasks = append(ic.freeTasks, t)
}

// recvOp is a local stand-in for pushpull's pooled receive operation.
type recvOp struct {
	msg *int
}

type endpoint struct {
	freeOps []*recvOp
	pending []*recvOp
}

func (ep *endpoint) freeRecvOp(op *recvOp) {
	*op = recvOp{}
	ep.freeOps = append(ep.freeOps, op)
}

func (ep *endpoint) retry(op *recvOp) {
	ep.freeRecvOp(op)
	ep.pending = append(ep.pending, op) // want `after it was released`
}

// clean: read the message out, then recycle the op.
func (ep *endpoint) finishRecv(op *recvOp) *int {
	m := op.msg
	ep.freeRecvOp(op)
	return m
}

// sender is a local stand-in for pushpull's pooled send step machine,
// the record a nonblocking send's helper task runs (receiver and puller
// are pooled the same way).
type sender struct {
	req *int
}

type stack struct {
	freeSenders []*sender
	last        *sender
}

func (s *stack) freeSender(sd *sender) {
	*sd = sender{}
	s.freeSenders = append(s.freeSenders, sd)
}

func (s *stack) finishSend(sd *sender) {
	s.freeSender(sd)
	s.last = sd // want `pooled sender "sd" stored in field s\.last after it was released`
}

// clean: take the request out, then recycle the record.
func (s *stack) finishSendClean(sd *sender) *int {
	req := sd.req
	s.freeSender(sd)
	return req
}
