package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"pushpull/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	r := NewRecorder(0)
	r.Record(10, 0, KindSend, "a")
	r.Record(20, 1, KindPush, "b")
	r.Recordf(30, 0, KindComplete, "got %d", 42)

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	if evs[0].Kind != KindSend || evs[1].Kind != KindPush || evs[2].Kind != KindComplete {
		t.Errorf("kinds out of order: %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[2].Text != "got 42" {
		t.Errorf("Recordf text = %q", evs[2].Text)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 || evs[2].Seq != 2 {
		t.Errorf("sequence numbers %d %d %d", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(1, 0, KindSend, "x") // must not panic
	r.Recordf(2, 0, KindPush, "y %d", 1)
	if r.Len() != 0 || r.Total() != 0 || r.Count(KindSend) != 0 {
		t.Error("nil recorder reported non-zero state")
	}
	if r.Events() != nil || r.Kinds() != nil {
		t.Error("nil recorder returned events")
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(sim.Time(i), 0, KindPush, "")
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Total() != 7 || r.Evicted() != 4 {
		t.Errorf("Total = %d Evicted = %d, want 7 and 4", r.Total(), r.Evicted())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := sim.Time(4 + i); ev.T != want {
			t.Errorf("event %d at %v, want %v (oldest must be evicted first)", i, ev.T, want)
		}
	}
	// Counters survive eviction.
	if r.Count(KindPush) != 7 {
		t.Errorf("Count = %d, want 7", r.Count(KindPush))
	}
}

func TestFilterOfKindBetween(t *testing.T) {
	r := NewRecorder(0)
	r.Record(10, 0, KindSend, "s")
	r.Record(20, 1, KindPush, "p1")
	r.Record(30, 1, KindPush, "p2")
	r.Record(40, 0, KindComplete, "c")

	if got := len(r.OfKind(KindPush)); got != 2 {
		t.Errorf("OfKind(push) = %d, want 2", got)
	}
	if got := len(r.Between(20, 40)); got != 2 {
		t.Errorf("Between(20,40) = %d events, want 2 (half-open)", got)
	}
	node1 := r.Filter(func(ev Event) bool { return ev.Node == 1 })
	if len(node1) != 2 {
		t.Errorf("Filter(node 1) = %d, want 2", len(node1))
	}
}

func TestKindsSortedAndSummary(t *testing.T) {
	r := NewRecorder(0)
	r.Record(1, 0, KindPush, "")
	r.Record(2, 0, KindComplete, "")
	r.Record(3, 0, KindPush, "")

	kinds := r.Kinds()
	if len(kinds) != 2 || kinds[0] != KindComplete || kinds[1] != KindPush {
		t.Errorf("Kinds = %v, want sorted [complete push]", kinds)
	}
	sum := r.Summary()
	if !strings.Contains(sum, "push") || !strings.Contains(sum, "2") {
		t.Errorf("Summary missing push count: %q", sum)
	}
}

func TestRenderFlatContainsEverything(t *testing.T) {
	r := NewRecorder(0)
	r.Record(10, 0, KindSend, "hello")
	r.Record(20, 1, KindComplete, "world")
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hello") || !strings.Contains(out, "world") {
		t.Errorf("Render output missing events:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("Render produced %d lines, want 2", lines)
	}
}

func TestRenderColumnsIndentsByNode(t *testing.T) {
	r := NewRecorder(0)
	r.Record(10, 0, KindSend, "left")
	r.Record(20, 5, KindComplete, "right")
	r.Record(30, -1, KindError, "gutter")
	var b strings.Builder
	if err := r.RenderColumns(&b, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if strings.HasPrefix(lines[0], " ") {
		t.Errorf("node 0 event indented: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], strings.Repeat(" ", 20)) {
		t.Errorf("second node's column not indented: %q", lines[1])
	}
	if strings.HasPrefix(lines[2], " ") {
		t.Errorf("gutter event indented: %q", lines[2])
	}
}

func TestEventString(t *testing.T) {
	ev := Event{T: sim.Time(1500), Node: 2, Kind: KindPullReq, Text: "x"}
	s := ev.String()
	if !strings.Contains(s, "n2") || !strings.Contains(s, "pull-req") {
		t.Errorf("Event.String = %q", s)
	}
}

// Property: for any record sequence, Total == sum of per-kind counts, and
// retained events are a suffix of the recorded sequence in order.
func TestRecorderCountInvariant(t *testing.T) {
	kinds := []Kind{KindSend, KindPush, KindPark, KindComplete}
	f := func(choices []uint8, max uint8) bool {
		r := NewRecorder(int(max % 16))
		for i, c := range choices {
			r.Record(sim.Time(i), int(c)%3, kinds[int(c)%len(kinds)], "")
		}
		var sum uint64
		for _, k := range r.Kinds() {
			sum += r.Count(k)
		}
		if sum != uint64(len(choices)) || r.Total() != uint64(len(choices)) {
			return false
		}
		evs := r.Events()
		// Events are in recording order and are the most recent ones.
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				return false
			}
		}
		return len(evs) == 0 || evs[len(evs)-1].Seq == uint64(len(choices))-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypedEventRendersOnRead(t *testing.T) {
	r := NewRecorder(0)
	r.AddPrefixed(5, 1, KindPush, "n%d.p%d->n%d.p%d#%d ", "push frag [%d:%d) preloaded=true", 0, 0, 1, 0, 7, 80, 760)
	r.Add(6, 1, KindNICTx, "frame %d->%d %dB on wire", 0, 1, 96)
	evs := r.Events()
	if got, want := evs[0].Message(), "n0.p0->n1.p0#7 push frag [80:760) preloaded=true"; got != want {
		t.Errorf("prefixed Message = %q, want %q", got, want)
	}
	if got, want := evs[1].String(), "6ns n1 nic-tx        frame 0->1 96B on wire"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if evs[0].Text != "" {
		t.Errorf("typed event carries Text %q", evs[0].Text)
	}
}

func TestTooManyArgumentsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with MaxArgs+1 arguments did not panic")
		}
	}()
	NewCounter().Add(0, 0, KindPush, "", make([]int, MaxArgs+1)...)
}

// kindIndex must agree with declared, or counts would land on the wrong
// kind; any other kind is counted apart.
func TestKindIndexMatchesDeclared(t *testing.T) {
	for i, k := range declared {
		if got := kindIndex(k); got != i {
			t.Errorf("kindIndex(%s) = %d, want %d", k, got, i)
		}
	}
	if got := kindIndex("api"); got != -1 {
		t.Errorf("kindIndex(api) = %d, want -1", got)
	}
}

// A counts-only recorder keeps no events but counts every one, free text
// included, exactly as a full recorder would.
func TestCounterCountsEverything(t *testing.T) {
	full, counter := NewRecorder(2), NewCounter()
	for _, r := range []*Recorder{full, counter} {
		r.Add(1, 0, KindPush, "frag %d", 1)
		r.AddPrefixed(2, 0, KindPush, "#%d ", "frag %d", 1, 2)
		r.Record(3, 1, KindComplete, "done")
		r.Recordf(4, 1, KindError, "lost %d", 3)
		r.Record(5, 0, "api", "undeclared kind")
	}
	if counter.Len() != 0 {
		t.Errorf("counter kept %d events", counter.Len())
	}
	if counter.Total() != full.Total() || counter.Total() != 5 {
		t.Errorf("Total: counter %d, full %d, want 5", counter.Total(), full.Total())
	}
	for _, k := range full.Kinds() {
		if counter.Count(k) != full.Count(k) {
			t.Errorf("Count(%s): counter %d, full %d", k, counter.Count(k), full.Count(k))
		}
	}
	if len(counter.Kinds()) != 4 || len(full.Kinds()) != 4 {
		t.Errorf("Kinds: counter %v, full %v", counter.Kinds(), full.Kinds())
	}
}

// Recording a typed event allocates nothing, into a counts-only recorder
// and into a full ring that has already warmed up.
func TestTypedEventAllocatesNothing(t *testing.T) {
	full := NewRecorder(64)
	for i := 0; i < 64; i++ {
		full.Add(0, 0, KindPush, "warm %d", i)
	}
	for name, r := range map[string]*Recorder{"counter": NewCounter(), "full ring": full} {
		r.Add(0, 0, KindPush, "warm") // the kind's count exists
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i++
			r.AddPrefixed(sim.Time(i), 1, KindPush, "n%d.p%d->n%d.p%d#%d ", "push frag [%d:%d) preloaded=true", 0, 0, 1, 0, i, i, i+760)
			r.Add(sim.Time(i), 1, KindPush, "frame %d->%d %dB on wire", 0, 1, i)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per typed event pair, want 0", name, allocs)
		}
	}
}
