package ether

import (
	"fmt"

	"pushpull/internal/fault"
	"pushpull/internal/sim"
)

// Hub is a shared-medium (half-duplex) Fast Ethernet repeater — the
// cheap alternative to the switch in the paper's era. Every attached
// station contends for one wire: data and acknowledgement traffic of a
// single connection collide with each other, which is why the paper's
// testbed (and every serious COMP) used a switch or back-to-back
// cabling instead. The hub exists for the hub-vs-switch ablation.
//
// The MAC model is 1-persistent CSMA/CD at station granularity: a
// station sensing the medium busy defers until it goes idle (the FIFO
// medium resource), and a station that had to defer pays one collision —
// a jam slot plus a random backoff slot — before its frame seizes the
// wire, modelling the contenders racing for the same idle instant.
// Sub-slot timing and the 16-collision excessive-collision abort are not
// modelled: with a handful of stations deferring FIFO, real MACs
// essentially never reach them. What the protocol above observes —
// all traffic serialized on one wire, plus per-contention jitter — is
// preserved.
type Hub struct {
	e      *sim.Engine
	cfg    Config
	medium *sim.Resource
	ports  map[int]Port
	slot   sim.Duration
	out    deliveries

	collisions uint64
	sent       uint64
	lost       uint64

	inj       *fault.HubInjector
	faultLost uint64
}

// NewHub creates a hub. Attach every NIC with Attach; the hub itself is
// the Medium the NICs transmit on.
func NewHub(e *sim.Engine, cfg Config) *Hub {
	slot := sim.Duration(512 * int64(sim.Second) / cfg.BitsPerSec)
	return &Hub{
		e:      e,
		cfg:    cfg,
		medium: sim.NewResource(e, "hub-medium"),
		ports:  make(map[int]Port),
		slot:   slot,
		out:    deliveries{e: e},
	}
}

// Attach registers a station for frame delivery. The caller hands the hub
// itself to the NIC as its transmit medium.
func (h *Hub) Attach(p Port) {
	if _, dup := h.ports[p.NodeID()]; dup {
		panic(fmt.Sprintf("ether: node %d attached to hub twice", p.NodeID()))
	}
	h.ports[p.NodeID()] = p
}

// Config implements Medium.
func (h *Hub) Config() Config { return h.cfg }

// SlotTime reports the contention slot (512 bit times).
func (h *Hub) SlotTime() sim.Duration { return h.slot }

// Collisions reports how many transmissions had to defer and pay the
// contention penalty.
func (h *Hub) Collisions() uint64 { return h.collisions }

// FramesSent reports frames fully repeated onto the medium.
func (h *Hub) FramesSent() uint64 { return h.sent }

// FramesLost reports frames dropped by the configured loss rate.
func (h *Hub) FramesLost() uint64 { return h.lost }

// SetInjector arms a fault injector on the shared medium (nil disarms).
func (h *Hub) SetInjector(in *fault.HubInjector) { h.inj = in }

// FaultLost reports frames dropped by the armed fault injector.
func (h *Hub) FaultLost() uint64 { return h.faultLost }

// TransmitStep implements Medium: defer while the wire is busy (carrier
// sense), pay a jam-plus-backoff penalty if there was contention, then
// hold the one shared wire for the serialization time and deliver to the
// destination station.
func (h *Hub) TransmitStep(tk *sim.Tasklet, cur *TxCursor, from Port, f Frame) bool {
	switch cur.pc {
	case txAcquire, txReacquire:
		if cur.pc == txAcquire {
			cur.contended = h.medium.Held()
		}
		if !h.medium.PollAcquire(tk, cur.pc == txAcquire) {
			cur.pc = txReacquire
			return false
		}
		if cur.contended {
			h.collisions++
			cur.pc = txBackoffDone
			tk.Sleep(h.slot + h.e.Rand().Duration(h.slot))
			return false
		}
		cur.pc = txSerialized
		tk.Sleep(h.cfg.WireTime(f.PayloadBytes))
		return false
	case txBackoffDone:
		cur.pc = txSerialized
		tk.Sleep(h.cfg.WireTime(f.PayloadBytes))
		return false
	default: // txSerialized
		h.medium.Release()
		h.finish(f)
		return true
	}
}

// finish counts the serialized frame, draws the loss lottery, and
// schedules delivery to the claiming station.
func (h *Hub) finish(f Frame) {
	h.sent++
	if h.cfg.LossRate > 0 && h.e.Rand().Float64() < h.cfg.LossRate {
		h.lost++
		return // lost on the wire, like a point-to-point link would lose it
	}
	// Consulted after the i.i.d. draw so the engine-RNG sequence of an
	// unfaulted run is untouched.
	if h.inj != nil && h.inj.Lose(h.e.Now(), f.Src, f.Dst) {
		h.faultLost++
		return
	}
	dst, ok := h.ports[f.Dst]
	if !ok {
		return // repeated to every station; nobody claims it
	}
	h.out.schedule(h.cfg.Propagation, dst, f)
}
