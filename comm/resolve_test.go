package comm

import "testing"

// TestResolveAllocatesNothing: options are data, so folding them leaves
// the resolved settings on the stack, and the last option of a kind wins.
func TestResolveAllocatesNothing(t *testing.T) {
	opts := []Option{WithTag(7), WithBTP(100), WithBuffer(4096), WithTag(3)}
	var cfg opConfig
	if n := testing.AllocsPerRun(100, func() { cfg = resolve(opts) }); n != 0 {
		t.Fatalf("resolving %d options allocates %.2f objects, want 0", len(opts), n)
	}
	if want := (opConfig{tag: 3, btp: 100, buf: 4096, hasBuf: true}); cfg != want {
		t.Fatalf("resolved %+v, want %+v", cfg, want)
	}
	if want := (opConfig{tag: 0, btp: -1}); resolve(nil) != want {
		t.Fatalf("resolved no options to %+v, want %+v", resolve(nil), want)
	}
}
