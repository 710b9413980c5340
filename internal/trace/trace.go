// Package trace records structured protocol events from a simulation run.
//
// The messaging stack, the NIC model and the reliability layer publish
// typed events (push transmitted, fragment parked, pull granted, frame
// dropped, ...) into a Recorder as constant formats plus integers, which
// are formatted only when read. The recorder keeps a bounded ring of the
// most recent events plus complete per-kind counters (a NewCounter
// recorder keeps only the counters), and renders either a flat timeline
// or a per-node columnar view. cmd/pushpull-trace uses it to show a
// messaging event's anatomy; tests use the counters to assert which
// protocol paths a scenario exercised.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pushpull/internal/sim"
)

// Kind classifies one protocol event. Kinds are open-ended strings so
// substrate packages can add their own without a central registry, but the
// messaging stack sticks to the constants below.
type Kind string

// Event kinds emitted by the Push-Pull stack.
const (
	// KindSend marks a send operation entering the send queue.
	KindSend Kind = "send"
	// KindPush marks a pushed fragment (or bare announcement) handed to
	// the wire during the push phase.
	KindPush Kind = "push"
	// KindDirect marks a fragment copied straight into the destination
	// buffer through the registered zero buffer (one copy).
	KindDirect Kind = "direct"
	// KindPark marks a fragment staged in the pushed buffer because no
	// receive operation was registered yet (second copy to come).
	KindPark Kind = "park"
	// KindDiscard marks a pushed fragment dropped for lack of pushed-
	// buffer space that the pull request will re-fetch.
	KindDiscard Kind = "discard"
	// KindRefuse marks a fully eager fragment refused for lack of pushed-
	// buffer space; go-back-N retransmission recovers it (the Fig. 6
	// Push-All collapse).
	KindRefuse Kind = "refuse"
	// KindPullReq marks the receive side's acknowledgement-cum-pull-
	// request leaving for the sender.
	KindPullReq Kind = "pull-req"
	// KindPullGrant marks the send side serving a pull request from the
	// send queue.
	KindPullGrant Kind = "pull-grant"
	// KindPullDispatch marks the intranode pull phase being handed to a
	// kernel thread on a chosen CPU.
	KindPullDispatch Kind = "pull-dispatch"
	// KindComplete marks a message fully received.
	KindComplete Kind = "complete"
	// KindError marks protocol-visible errors (unknown peers, oversized
	// messages).
	KindError Kind = "error"
)

// Event kinds emitted by the NIC model.
const (
	// KindNICTx marks a frame fully serialized onto the wire.
	KindNICTx Kind = "nic-tx"
	// KindNICRx marks a frame delivered to the protocol handler.
	KindNICRx Kind = "nic-rx"
	// KindNICDrop marks a frame lost to incoming-ring overflow.
	KindNICDrop Kind = "nic-drop"
)

// Event kinds emitted by the go-back-N layer.
const (
	// KindRTO marks a retransmission timeout firing.
	KindRTO Kind = "rto"
	// KindRetransmit marks one packet retransmission.
	KindRetransmit Kind = "retransmit"
)

// declared lists the kinds above in kindIndex order. A recorder counts
// them in an array and any other kind in a map: every protocol event is
// counted, and kindIndex plus an array increment costs about 5 ns where
// a map assignment costs about 16 ns (x86-64, Go 1.24).
var declared = [...]Kind{KindSend, KindPush, KindDirect, KindPark, KindDiscard,
	KindRefuse, KindPullReq, KindPullGrant, KindPullDispatch, KindComplete,
	KindError, KindNICTx, KindNICRx, KindNICDrop, KindRTO, KindRetransmit}

// kindIndex reports k's index in declared, or -1 for any other kind.
func kindIndex(k Kind) int {
	switch k {
	case KindSend:
		return 0
	case KindPush:
		return 1
	case KindDirect:
		return 2
	case KindPark:
		return 3
	case KindDiscard:
		return 4
	case KindRefuse:
		return 5
	case KindPullReq:
		return 6
	case KindPullGrant:
		return 7
	case KindPullDispatch:
		return 8
	case KindComplete:
		return 9
	case KindError:
		return 10
	case KindNICTx:
		return 11
	case KindNICRx:
		return 12
	case KindNICDrop:
		return 13
	case KindRTO:
		return 14
	case KindRetransmit:
		return 15
	}
	return -1
}

// MaxArgs is how many integer arguments one typed event carries.
const MaxArgs = 10

// Event is one recorded protocol event. A typed event (Add, AddPrefixed)
// keeps its constant format and integer arguments and is formatted only
// when something reads it; a free-text event (Record, Recordf) keeps Text.
type Event struct {
	// T is the virtual time the event was recorded.
	T sim.Time
	// Node is the node the event happened on (-1 when not node-bound).
	Node int
	// Kind classifies the event.
	Kind Kind
	// Text is the description of a free-text event; typed events leave
	// it empty (use Message).
	Text string
	// Seq is the recorder-assigned sequence number (total order of
	// recording, stable across ring eviction).
	Seq uint64

	prefix, format string
	args           [MaxArgs]int
	nargs          int
}

// Message returns the human-readable description: Text, or the typed
// event's format applied to its arguments.
func (ev Event) Message() string {
	if ev.format == "" {
		return ev.Text
	}
	args := make([]any, ev.nargs)
	for i := range args {
		args[i] = ev.args[i]
	}
	return fmt.Sprintf(ev.prefix+ev.format, args...)
}

func (ev Event) String() string {
	return fmt.Sprintf("%v n%d %-13s %s", ev.T, ev.Node, ev.Kind, ev.Message())
}

// Recorder collects events. It keeps at most max events (the oldest are
// evicted first) but counts every event ever recorded per kind, so
// counters remain exact even after eviction. The zero value is not usable;
// create recorders with NewRecorder or NewCounter.
//
// A nil *Recorder is safe to record into (the calls are no-ops), so model
// code can publish events unconditionally.
type Recorder struct {
	max       int
	countOnly bool
	evs       []Event
	start     int // ring head
	seq       uint64
	evicted   uint64
	// counts holds the declared kinds' counts by kindIndex, others the
	// rest.
	counts [len(declared)]uint64
	others map[Kind]uint64
}

// NewRecorder returns an empty recorder keeping at most max events.
// max <= 0 means unbounded.
func NewRecorder(max int) *Recorder {
	return &Recorder{max: max, others: make(map[Kind]uint64)}
}

// NewCounter returns a recorder that keeps no events, only the per-kind
// counts and the total, for runs that read nothing else.
func NewCounter() *Recorder {
	return &Recorder{countOnly: true, others: make(map[Kind]uint64)}
}

// Record appends one free-text event. Recording into a nil recorder is a
// no-op.
func (r *Recorder) Record(t sim.Time, node int, kind Kind, text string) {
	if r.counted(kind) {
		r.store(Event{T: t, Node: node, Kind: kind, Text: text})
	}
}

// Recordf is Record with fmt.Sprintf formatting, skipped when the
// recorder only counts. Hot paths use Add, which formats nothing.
func (r *Recorder) Recordf(t sim.Time, node int, kind Kind, format string, args ...any) {
	if r.counted(kind) {
		r.store(Event{T: t, Node: node, Kind: kind, Text: fmt.Sprintf(format, args...)})
	}
}

// Add records a typed event whose text is fmt.Sprintf(format, args...),
// formatted only when the event is read. format should be a constant;
// at most MaxArgs arguments fit. Recording allocates nothing.
func (r *Recorder) Add(t sim.Time, node int, kind Kind, format string, args ...int) {
	r.AddPrefixed(t, node, kind, "", format, args...)
}

// AddPrefixed is Add with a constant prefix format (such as a channel
// name's) whose verbs take the first arguments.
func (r *Recorder) AddPrefixed(t sim.Time, node int, kind Kind, prefix, format string, args ...int) {
	if len(args) > MaxArgs {
		panic("trace: too many event arguments")
	}
	if !r.counted(kind) {
		return
	}
	ev := Event{T: t, Node: node, Kind: kind, prefix: prefix, format: format, nargs: len(args)}
	copy(ev.args[:], args)
	r.store(ev)
}

// counted tallies one event of kind and reports whether the recorder
// also keeps it: false for a nil or counts-only recorder.
func (r *Recorder) counted(kind Kind) bool {
	if r == nil {
		return false
	}
	r.seq++
	if i := kindIndex(kind); i >= 0 {
		r.counts[i]++
	} else {
		r.others[kind]++
	}
	return !r.countOnly
}

// store keeps the event just counted in the ring.
func (r *Recorder) store(ev Event) {
	ev.Seq = r.seq - 1
	if r.max > 0 && len(r.evs) == r.max {
		// Evict the oldest by rotating the ring start.
		r.evs[r.start] = ev
		r.start = (r.start + 1) % r.max
		r.evicted++
		return
	}
	r.evs = append(r.evs, ev)
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.evs)
}

// Total reports the number of events ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Evicted reports how many events the ring dropped.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.evicted
}

// Count reports how many events of the given kind were ever recorded.
func (r *Recorder) Count(kind Kind) uint64 {
	if r == nil {
		return 0
	}
	if i := kindIndex(kind); i >= 0 {
		return r.counts[i]
	}
	return r.others[kind]
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.evs))
	for i := 0; i < len(r.evs); i++ {
		out = append(out, r.evs[(r.start+i)%len(r.evs)])
	}
	return out
}

// Filter returns the retained events for which pred is true, oldest-first.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if pred(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// OfKind returns the retained events of one kind, oldest-first.
func (r *Recorder) OfKind(kind Kind) []Event {
	return r.Filter(func(ev Event) bool { return ev.Kind == kind })
}

// Between returns the retained events with from <= T < to, oldest-first.
func (r *Recorder) Between(from, to sim.Time) []Event {
	return r.Filter(func(ev Event) bool { return ev.T >= from && ev.T < to })
}

// Kinds returns every kind ever recorded, sorted, for stable reports.
func (r *Recorder) Kinds() []Kind {
	if r == nil {
		return nil
	}
	kinds := make([]Kind, 0, len(r.others))
	for i, n := range r.counts {
		if n > 0 {
			kinds = append(kinds, declared[i])
		}
	}
	for k := range r.others {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// Summary renders one line per kind with its total count, sorted by kind.
func (r *Recorder) Summary() string {
	var b strings.Builder
	for _, k := range r.Kinds() {
		fmt.Fprintf(&b, "%-13s %d\n", k, r.Count(k))
	}
	return b.String()
}

// Render writes the retained events as a flat timeline, one per line.
func (r *Recorder) Render(w io.Writer) error {
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintln(w, ev.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderColumns writes the retained events with one column per node, so
// concurrent activity on different machines reads side by side. Events
// with Node < 0 span the gutter. width is the column width (0 picks 44).
func (r *Recorder) RenderColumns(w io.Writer, width int) error {
	if width <= 0 {
		width = 44
	}
	nodes := r.nodeIDs()
	col := make(map[int]int, len(nodes))
	for i, n := range nodes {
		col[n] = i
	}
	for _, ev := range r.Events() {
		text := fmt.Sprintf("%v %s %s", ev.T, ev.Kind, ev.Message())
		var line strings.Builder
		if ev.Node < 0 {
			line.WriteString(text)
		} else {
			line.WriteString(strings.Repeat(" ", col[ev.Node]*width))
			line.WriteString(text)
		}
		if _, err := fmt.Fprintln(w, line.String()); err != nil {
			return err
		}
	}
	return nil
}

// nodeIDs lists the distinct non-negative node ids seen, sorted.
func (r *Recorder) nodeIDs() []int {
	seen := map[int]bool{}
	for _, ev := range r.Events() {
		if ev.Node >= 0 {
			seen[ev.Node] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for n := range seen {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	return ids
}
