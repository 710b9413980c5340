package coll

import (
	"fmt"

	"pushpull/comm"
	"pushpull/internal/cluster"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// World maps collective ranks onto the processes of a cluster,
// node-major: rank r is process r%procs on node r/procs.
type World struct {
	c     *cluster.Cluster
	cfg   Config
	ranks []*comm.Comm
	// progs are the per-node progression tasklets (each created on its
	// node's first nonblocking collective): they advance outstanding
	// Requests' rounds as their operations complete, so collectives make
	// progress while rank threads compute, without Test polling. The
	// state is per node — tasklet, outstanding list, completion conds.
	// One tasklet per node fixes the order in which progression events
	// are scheduled, and the pinned digests record that order.
	progs []*nodeProgressor
}

// nodeProgressor drives the Requests of one node's ranks on
// that node's engine.
type nodeProgressor struct {
	tk          *sim.Tasklet
	outstanding []*Request
}

// step is the progression tasklet's body: pump every outstanding
// Request, dropping the ones that completed. Spurious wakes (several
// operations broadcasting before the tasklet runs) cost one scan.
func (np *nodeProgressor) step(tk *sim.Tasklet) {
	live := np.outstanding[:0]
	for _, rq := range np.outstanding {
		if !rq.pump(tk) {
			live = append(live, rq)
		}
	}
	for i := len(live); i < len(np.outstanding); i++ {
		np.outstanding[i] = nil
	}
	np.outstanding = live
}

// WorldOption configures a World at construction.
type WorldOption func(*World)

// WithConfig installs the world's per-operation algorithm selection. It
// panics on an invalid pairing — worlds are built from code, not user
// input (screen spec-driven input with Config.Validate first).
func WithConfig(cfg Config) WorldOption {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return func(w *World) { w.cfg = cfg }
}

// NewWorld builds the rank space over every process of the cluster.
func NewWorld(c *cluster.Cluster, opts ...WorldOption) *World {
	w := &World{c: c}
	for n := range c.Stacks {
		for p := 0; p < c.ProcsPerNode(); p++ {
			w.ranks = append(w.ranks, comm.At(c, n, p))
		}
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// enqueueProgress hands a freshly started Request to its
// node's progression tasklet and subscribes the tasklet to the round
// already in flight. The unconditional Wake covers operations that
// completed before the subscription (the round was posted on the rank's
// thread, whose posting costs let the helper tasks run ahead): Subscribe
// registers nothing for those, so the first pump must not depend on a
// wake from them.
func (w *World) enqueueProgress(rq *Request) {
	node := rq.r.cm.ID().Node
	if w.progs == nil {
		w.progs = make([]*nodeProgressor, len(w.c.Nodes))
	}
	np := w.progs[node]
	if np == nil {
		np = &nodeProgressor{}
		np.tk = w.c.Nodes[node].Engine.NewTasklet("coll-progress", np.step)
		w.progs[node] = np
	}
	np.outstanding = append(np.outstanding, rq)
	rq.subscribe(np.tk)
	np.tk.Wake()
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Cluster returns the underlying cluster.
func (w *World) Cluster() *cluster.Cluster { return w.c }

// Config returns the world's algorithm selection.
func (w *World) Config() Config { return w.cfg }

// Launch starts one thread per rank executing body, without driving the
// simulation — for callers that own the run loop (the scenario engine
// drives the cluster under a virtual-time budget). Most programs want
// Run.
func (w *World) Launch(body func(r *Rank)) {
	for i, cm := range w.ranks {
		r := &Rank{w: w, id: i, cm: cm}
		id := cm.ID()
		node := w.c.Nodes[id.Node]
		node.Spawn(fmt.Sprintf("rank%d", i), cm.Endpoint().CPU, func(t *smp.Thread) {
			r.t = t
			body(r)
		})
	}
}

// Run starts one thread per rank executing body and drives the
// simulation until every rank returns, returning the final virtual time.
// It panics if any rank's collective fails: collectives are programming
// errors when they fail, not runtime conditions.
func (w *World) Run(body func(r *Rank)) sim.Time {
	w.Launch(body)
	return w.c.Run()
}

// Rank is one process's handle inside a running World. All methods must
// be called from the rank's own thread (inside the Run body).
type Rank struct {
	w  *World
	id int
	cm *comm.Comm
	t  *smp.Thread
	// seq counts the collectives this rank has started. Every rank
	// starts collectives in the same order (the SPMD requirement), so
	// the rank-local counters agree globally and ReservedTag+seq is the
	// same lane on every participant.
	seq int
}

// nextCollTag allocates the next collective's tag lane.
func (r *Rank) nextCollTag() int {
	tag := ReservedTag + r.seq
	r.seq++
	return tag
}

// ID reports this rank's number; Size the world size.
func (r *Rank) ID() int   { return r.id }
func (r *Rank) Size() int { return r.w.Size() }

// Thread exposes the rank's thread for application compute phases.
func (r *Rank) Thread() *smp.Thread { return r.t }

// Comm exposes the rank's messaging handle for point-to-point calls
// beyond the collective vocabulary.
func (r *Rank) Comm() *comm.Comm { return r.cm }

// Compute burns application cycles (the paper's NOP loops).
func (r *Rank) Compute(cycles int64) { r.t.Compute(cycles) }

// peer returns rank to's process identity.
func (r *Rank) peer(to int) comm.ProcessID { return r.w.ranks[to].ID() }

// algorithm resolves the schedule for op: per-call option, then the
// world's Config, then the op's default. Invalid pairings panic.
func (r *Rank) algorithm(op OpKind, opts []Opt) Algorithm {
	var c callCfg
	for _, o := range opts {
		o(&c)
	}
	a := c.alg
	if a == "" {
		a = r.w.cfg.algorithm(op)
	}
	if a == "" {
		a = DefaultAlgorithm(op)
	}
	if err := ValidateAlgorithm(op, a); err != nil {
		panic(err)
	}
	return a
}

// segment resolves the segmented algorithms' segment size: the per-call
// WithSegment, then the world's Config.SegmentBytes, then
// DefaultSegmentBytes.
func (r *Rank) segment(opts []Opt) int {
	var c callCfg
	for _, o := range opts {
		o(&c)
	}
	if c.seg > 0 {
		return c.seg
	}
	if r.w.cfg.SegmentBytes > 0 {
		return r.w.cfg.SegmentBytes
	}
	return DefaultSegmentBytes
}

// Send transmits data to rank to (blocking, like comm.Send: returns
// when the local send completes). Extra comm options (tags, BTP
// overrides) pass through.
func (r *Rank) Send(to int, data []byte, opts ...comm.Option) {
	if err := r.cm.Send(r.t, r.peer(to), data, opts...); err != nil {
		panic(fmt.Errorf("coll: rank %d send to %d: %w", r.id, to, err))
	}
}

// Isend starts a nonblocking send to rank to.
func (r *Rank) Isend(to int, data []byte, opts ...comm.Option) *comm.Op {
	return r.cm.Isend(r.t, r.peer(to), data, opts...)
}

// Recv blocks until the next message from rank from arrives and returns
// its bytes. n bounds the expected size.
func (r *Rank) Recv(from, n int, opts ...comm.Option) []byte {
	b, err := r.cm.Recv(r.t, r.peer(from), n, opts...)
	if err != nil {
		panic(fmt.Errorf("coll: rank %d recv from %d: %w", r.id, from, err))
	}
	return b
}

// Irecv starts a nonblocking receive of up to n bytes from rank from.
func (r *Rank) Irecv(from, n int, opts ...comm.Option) *comm.Op {
	return r.cm.Irecv(r.t, r.peer(from), n, opts...)
}

// SendRecv exchanges messages with two peers concurrently (send to one,
// receive from the other) — the ring-step primitive for application
// code. Using a nonblocking send is what makes rings deadlock-free
// under synchronous modes. Extra comm options (e.g. a tag) apply to
// both the send and the receive.
func (r *Rank) SendRecv(to int, data []byte, from, n int, opts ...comm.Option) []byte {
	sreq := r.Isend(to, data, opts...)
	got := r.Recv(from, n, opts...)
	if _, err := sreq.Wait(r.t); err != nil {
		panic(fmt.Errorf("coll: rank %d sendrecv to %d: %w", r.id, to, err))
	}
	return got
}
