// Package nic models the network interface card (the paper's testbed used
// D-Link 500TX cards with the DEC 21140 controller): an outgoing FIFO
// drained by a transmit engine, host-memory DMA that contends for the
// node's memory bus, an incoming ring, and handler invocation through the
// node's interrupt controller.
//
// Two transmit trigger paths exist, because Address Translation Overhead
// Masking depends on the cheap one: the control registers and FIFO can be
// mapped into user space, letting the send process copy a pushed fragment
// into the outgoing FIFO and trigger transmission without a system call
// (paper §4.3, cf. DP, GAMMA, U-Net); or transmission can be triggered
// from kernel context after a host-memory DMA.
package nic

import (
	"fmt"

	"pushpull/internal/ether"
	"pushpull/internal/fault"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// Config describes one NIC.
type Config struct {
	// TxRingFrames / RxRingFrames bound the on-card FIFOs.
	TxRingFrames int
	RxRingFrames int
	// TxSetup is the per-frame cost of the transmit engine (descriptor
	// fetch, FIFO management) before serialization starts.
	TxSetup sim.Duration
	// RxSetup is the per-frame receive-side DMA setup cost.
	RxSetup sim.Duration
	// DMABytesPerSec is the card's host-memory DMA rate.
	DMABytesPerSec int64
	// RxProcess is the driver's per-frame receive processing (ring
	// bookkeeping, header inspection) executed in handler context.
	RxProcess sim.Duration
	// TriggerUser is the cost of the mapped control-register write that
	// starts transmission from user space.
	TriggerUser sim.Duration
	// TriggerKernel is the driver transmit path taken without the mapped
	// registers: descriptor setup, ring bookkeeping (syscall cost is
	// charged separately by the protocol layer). Eliminating this per-
	// frame cost is what user-level triggering buys (cf. U-Net, GAMMA,
	// DP).
	TriggerKernel sim.Duration
}

// DEC21140 approximates the paper's 100 Mbit/s D-Link 500TX (DEC 21140
// "Tulip" controller) on a 33 MHz PCI bus.
func DEC21140() Config {
	return Config{
		TxRingFrames:   32,
		RxRingFrames:   64,
		TxSetup:        2500 * sim.Nanosecond,
		RxSetup:        2800 * sim.Nanosecond,
		DMABytesPerSec: 120_000_000,
		RxProcess:      4500 * sim.Nanosecond,
		TriggerUser:    200 * sim.Nanosecond,
		TriggerKernel:  5500 * sim.Nanosecond,
	}
}

// TxRequest is one frame queued for transmission.
type TxRequest struct {
	Frame ether.Frame
	// Preloaded marks frames whose payload is already in the outgoing
	// FIFO (copied there by the user-level trigger path); they skip the
	// host-memory DMA.
	Preloaded bool
}

// NIC is one network interface attached to a node and a link. All of
// its actors — the transmit engine, the per-frame wire stage, the
// receive DMA and the receive interrupt handler (unless
// SetReceiveHandler installs a process-tier one) — run as engine
// tasklets: resumable state machines dispatched inline, with no
// goroutine per pump or per frame.
type NIC struct {
	node *smp.Node
	cfg  Config
	link ether.Medium
	txQ  *sim.Queue[TxRequest]
	// newRx makes each receive record's tasklet-tier handler; onRx is
	// the process-tier handler, which takes precedence when set.
	newRx func() RxHandler
	onRx  func(t *smp.Thread, f ether.Frame)

	// Rec, when set, receives nic-tx / nic-rx / nic-drop trace events.
	Rec *trace.Recorder

	// Transmit-engine pump state (resume point + frame in hand).
	txTk  *sim.Tasklet
	txPC  int8
	txReq TxRequest
	// Recycled one-shot tasklets for the wire and receive stages.
	wirePool []*wireTx
	rxPool   []*rxJob

	rxInFlight int
	txFrames   uint64
	txBytes    uint64
	rxFrames   uint64
	rxDropped  uint64

	// inj, when set, injects node-pause rx drops and tx-stall windows;
	// nil (the default) costs one comparison per frame.
	inj          *fault.NICInjector
	faultDropped uint64
}

// Transmit-engine resume points.
const (
	nicTxFetch   = iota // fetch the next FIFO entry (parks on empty ring)
	nicTxSetup          // TxSetup elapsed: start the host DMA or go to wire
	nicTxBusWait        // wake-driven retry of the bus acquisition
	nicTxDMADone        // DMA hold elapsed: release the bus, go to wire
)

// New creates a NIC on node n. Attach a link with AttachLink before
// sending.
func New(n *smp.Node, cfg Config) *NIC {
	nc := &NIC{node: n, cfg: cfg}
	nc.txQ = sim.NewQueue[TxRequest](n.Engine, cfg.TxRingFrames)
	nc.txQ.SetName(fmt.Sprintf("nic-txq/n%d", n.ID))
	nc.txTk = n.Engine.NewTasklet(fmt.Sprintf("nic-tx/n%d", n.ID), nc.txPump)
	nc.txTk.Start()
	return nc
}

// AttachLink connects the NIC to its transmit medium — a point-to-point
// link, a switch port's link, or a shared hub.
func (nc *NIC) AttachLink(l ether.Medium) { nc.link = l }

// RxHandler is a protocol's reception handler on the tasklet tier. The
// NIC runs it in interrupt or polling context, per the node's policy,
// after the driver's per-frame processing.
type RxHandler interface {
	// Step runs the handler for frame f on t until t parks (false) or
	// the handler is done with f (true). The first Step after a done one
	// starts the next frame.
	Step(t *smp.Task, f ether.Frame) bool
}

// SetRxHandler registers the protocol entry point for every received
// frame. newHandler is called once per receive record, when the record
// is first made, so each handler may keep per-frame state across parks:
// the record and its handler are recycled together once the handler is
// done. Call it before traffic flows.
func (nc *NIC) SetRxHandler(newHandler func() RxHandler) { nc.newRx = newHandler }

// SetReceiveHandler registers a process-tier receive handler, which runs
// on a goroutine-backed process per frame instead of a task (see
// smp.InterruptController.Raise). It is kept for the benchmark module's
// NIC microbenchmark; a NIC with one ignores SetRxHandler.
func (nc *NIC) SetReceiveHandler(fn func(t *smp.Thread, f ether.Frame)) { nc.onRx = fn }

// Node returns the owning node.
func (nc *NIC) Node() *smp.Node { return nc.node }

// Config returns the NIC's configuration.
func (nc *NIC) Config() Config { return nc.cfg }

// NodeID implements ether.Port.
func (nc *NIC) NodeID() int { return nc.node.ID }

// TxFrames reports frames handed to the wire.
func (nc *NIC) TxFrames() uint64 { return nc.txFrames }

// TxBytes reports payload bytes handed to the wire — the per-node
// volume counter the bandwidth-optimal collective algorithms are
// judged by.
func (nc *NIC) TxBytes() uint64 { return nc.txBytes }

// RxFrames reports frames delivered to the protocol handler.
func (nc *NIC) RxFrames() uint64 { return nc.rxFrames }

// RxDropped reports frames lost to incoming-ring overflow.
func (nc *NIC) RxDropped() uint64 { return nc.rxDropped }

// SetFaultInjector arms a fault injector on the NIC (nil disarms).
func (nc *NIC) SetFaultInjector(in *fault.NICInjector) { nc.inj = in }

// FaultDropped reports received frames discarded because the host was
// paused by an injected fault.
func (nc *NIC) FaultDropped() uint64 { return nc.faultDropped }

// Send queues a frame for transmission, blocking the calling thread while
// the outgoing FIFO is full (the driver spins on ring space).
func (nc *NIC) Send(p *sim.Process, req TxRequest) {
	nc.txQ.Put(p, req)
}

// SendPoll is the tasklet-tier Send: it queues the frame if the outgoing
// FIFO has room; otherwise it registers w for a ring-space wake and
// reports false, and the caller must retry the same request when woken.
func (nc *NIC) SendPoll(w sim.Waiter, req TxRequest) bool {
	return nc.txQ.PollPut(w, req)
}

// TriggerCost reports the cost of the user-level doorbell write.
func (nc *NIC) TriggerCost() sim.Duration { return nc.cfg.TriggerUser }

// KernelTriggerCost reports the per-frame driver transmit path cost when
// transmission is initiated from kernel context.
func (nc *NIC) KernelTriggerCost() sim.Duration { return nc.cfg.TriggerKernel }

// txPump is the card's transmit engine: it drains the outgoing FIFO and
// DMAs payloads from host memory when they are not preloaded. Wire
// serialization happens on a separate stage so the engine can fetch the
// next frame while the current one is still on the wire — the link's FIFO
// resource keeps frames in order, and the wire (not the DMA engine) is
// the steady-state bottleneck, as on the real card.
//
// The pump is a persistent tasklet: each wake resumes at txPC, and every
// park (empty ring, bus contention, timed DMA hold) is a registration or
// sleep followed by a plain return.
func (nc *NIC) txPump(tk *sim.Tasklet) {
	for {
		switch nc.txPC {
		case nicTxFetch:
			req, ok := nc.txQ.PollGet(tk)
			if !ok {
				return
			}
			nc.txReq = req
			nc.txPC = nicTxSetup
			delay := nc.cfg.TxSetup
			// A stall or pause window freezes the transmit engine: the
			// fetched frame waits until the window lifts.
			if nc.inj != nil {
				if until, stalled := nc.inj.StallUntil(tk.Now()); stalled {
					delay += until.Sub(tk.Now())
				}
			}
			tk.Sleep(delay)
			return
		case nicTxSetup:
			if nc.txReq.Preloaded {
				nc.launchWire()
				nc.txPC = nicTxFetch
				continue
			}
			// DMA the payload across the host bus into the FIFO.
			if !nc.node.Bus.PollAcquire(tk, true) {
				nc.txPC = nicTxBusWait
				return
			}
			nc.txPC = nicTxDMADone
			tk.Sleep(dmaTime(nc.txReq.Frame.PayloadBytes, nc.cfg.DMABytesPerSec))
			return
		case nicTxBusWait:
			if !nc.node.Bus.PollAcquire(tk, false) {
				return
			}
			nc.txPC = nicTxDMADone
			tk.Sleep(dmaTime(nc.txReq.Frame.PayloadBytes, nc.cfg.DMABytesPerSec))
			return
		case nicTxDMADone:
			nc.node.Bus.Release()
			nc.launchWire()
			nc.txPC = nicTxFetch
		}
	}
}

// launchWire hands the frame in hand to a one-shot wire-stage tasklet,
// recycled through a pool so steady-state transmission allocates nothing.
func (nc *NIC) launchWire() {
	if nc.link == nil {
		panic(fmt.Sprintf("nic: node %d transmitting with no link attached", nc.node.ID))
	}
	var w *wireTx
	if n := len(nc.wirePool); n > 0 {
		w = nc.wirePool[n-1]
		nc.wirePool = nc.wirePool[:n-1]
	} else {
		w = &wireTx{nc: nc}
		w.tk = nc.node.Engine.NewTasklet("nic-wire", w.step)
	}
	w.frame = nc.txReq.Frame
	w.cur = ether.TxCursor{}
	nc.txReq = TxRequest{}
	w.tk.Start()
}

// wireTx serializes one frame onto the medium: a one-shot tasklet whose
// resume state lives in the medium's TxCursor.
type wireTx struct {
	nc    *NIC
	tk    *sim.Tasklet
	frame ether.Frame
	cur   ether.TxCursor
}

func (w *wireTx) step(tk *sim.Tasklet) {
	nc := w.nc
	if !nc.link.TransmitStep(tk, &w.cur, nc, w.frame) {
		return
	}
	nc.txFrames++
	nc.txBytes += uint64(w.frame.PayloadBytes)
	nc.Rec.Add(tk.Now(), nc.node.ID, trace.KindNICTx, "frame %d->%d %dB on wire", w.frame.Src, w.frame.Dst, w.frame.PayloadBytes)
	w.frame = ether.Frame{}
	nc.wirePool = append(nc.wirePool, w)
}

// DeliverFrame implements ether.Port: the last bit of a frame has arrived
// in the card's incoming buffer.
func (nc *NIC) DeliverFrame(f ether.Frame) {
	if nc.inj != nil && nc.inj.RxDrop(nc.node.Engine.Now()) {
		nc.faultDropped++
		nc.Rec.Add(nc.node.Engine.Now(), nc.node.ID, trace.KindNICDrop, "frame %d->%d %dB dropped: host paused", f.Src, f.Dst, f.PayloadBytes)
		return
	}
	if nc.rxInFlight >= nc.cfg.RxRingFrames {
		nc.rxDropped++
		nc.Rec.Add(nc.node.Engine.Now(), nc.node.ID, trace.KindNICDrop, "frame %d->%d %dB lost to rx-ring overflow", f.Src, f.Dst, f.PayloadBytes)
		return
	}
	nc.rxInFlight++
	// Receive-side DMA into the host ring, then handler invocation: a
	// one-shot tasklet per frame, recycled through a pool.
	var j *rxJob
	if n := len(nc.rxPool); n > 0 {
		j = nc.rxPool[n-1]
		nc.rxPool = nc.rxPool[:n-1]
	} else {
		j = &rxJob{nc: nc}
		j.tk = nc.node.Engine.NewTasklet("nic-rx", j.step)
		j.handleFn = j.handle
		j.handleTaskFn = j.handleTask
		if nc.newRx != nil {
			j.h = nc.newRx()
		}
	}
	j.frame = f
	j.tk.Start()
}

// rxJob DMAs one received frame into the host ring and raises the
// handler interrupt. It stays out of the pool until its handler is done
// with the frame.
type rxJob struct {
	nc    *NIC
	tk    *sim.Tasklet
	frame ether.Frame
	pc    rxPC
	// handleFn and handleTaskFn are the bound handle and handleTask
	// methods, created once per record.
	handleFn     func(t *smp.Thread)
	handleTaskFn func(t *smp.Task) bool
	// h is this record's protocol handler (nil without SetRxHandler).
	h RxHandler
}

// rxPC is a receive record's resume point.
type rxPC int8

const (
	rxBus      rxPC = iota // first bus attempt
	rxBusWait              // wake-driven retry of the bus acquisition
	rxDMADone              // DMA hold elapsed: release the bus, raise
	rxDriver               // handler: the driver's RxProcess
	rxRead                 // handler: RxProcess elapsed, frame out of the ring
	rxProtocol             // handler: the protocol handler runs
)

func (j *rxJob) step(tk *sim.Tasklet) {
	nc := j.nc
	switch j.pc {
	case rxBus, rxBusWait:
		if !nc.node.Bus.PollAcquire(tk, j.pc == rxBus) {
			j.pc = rxBusWait
			return
		}
		j.pc = rxDMADone
		tk.Sleep(nc.cfg.RxSetup + dmaTime(j.frame.PayloadBytes, nc.cfg.DMABytesPerSec))
	case rxDMADone:
		nc.node.Bus.Release()
		nc.rxFrames++
		nc.Rec.Add(tk.Now(), nc.node.ID, trace.KindNICRx, "frame %d->%d %dB in host ring", j.frame.Src, j.frame.Dst, j.frame.PayloadBytes)
		if nc.onRx != nil {
			j.pc = rxBus
			nc.node.IRQ.Raise("nic-rx", j.handleFn)
			return
		}
		j.pc = rxDriver
		nc.node.IRQ.RaiseTask(j.handleTaskFn)
	}
}

// handle is the process-tier receive interrupt handler: driver
// processing, then the protocol's receive handler. The job returns to
// the pool once the frame is read out of it.
func (j *rxJob) handle(t *smp.Thread) {
	nc := j.nc
	t.Exec(nc.cfg.RxProcess)
	nc.rxInFlight--
	f := j.frame
	j.frame = ether.Frame{}
	nc.rxPool = append(nc.rxPool, j)
	nc.onRx(t, f)
}

// handleTask is the receive interrupt handler on the tasklet tier:
// driver processing, then the protocol's handler, stepped until it is
// done with the frame. Then the job returns to the pool.
func (j *rxJob) handleTask(t *smp.Task) bool {
	nc := j.nc
	for {
		switch j.pc {
		case rxDriver:
			j.pc = rxRead
			if t.Exec(nc.cfg.RxProcess) {
				return false
			}
		case rxRead:
			nc.rxInFlight--
			j.pc = rxProtocol
		case rxProtocol:
			if j.h != nil && !j.h.Step(t, j.frame) {
				return false
			}
			j.pc, j.frame = rxBus, ether.Frame{}
			nc.rxPool = append(nc.rxPool, j)
			return true
		}
	}
}

func dmaTime(n int, rate int64) sim.Duration {
	if n <= 0 || rate <= 0 {
		return 0
	}
	return sim.Duration(int64(n) * int64(sim.Second) / rate)
}
