package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTimelines pins the rendered text of six invocations byte
// for byte. Events are recorded as formats plus integer arguments and
// formatted only on render; the goldens were captured while events were
// still formatted when recorded, so they prove the rendering unchanged:
// channel names such as n0.p0->n1.p0#0, preloaded=true, column layout,
// summary and breakdown.
func TestGoldenTimelines(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"intra-10.golden", []string{"-intra", "-size", "10"}},
		{"three-phase-late.golden", []string{"-mode", "three-phase", "-size", "4000", "-late", "1", "-columns", "-summary", "-breakdown"}},
		// Pushed-buffer overflow, discard and the intranode pull reach
		// the remaining formats: refuse, rto, retransmit, internode
		// park, preloaded=false, discard and pull-dispatch.
		{"push-all-overflow.golden", []string{"-mode", "push-all", "-size", "3072", "-pushedbuf", "4096", "-late", "1", "-summary"}},
		{"push-pull-discard.golden", []string{"-size", "4000", "-pushedbuf", "1000", "-late", "1", "-columns"}},
		{"intra-pull.golden", []string{"-intra", "-size", "4000"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(tc.args, &got); err != nil {
				t.Fatalf("run(%q): %v", tc.args, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("run(%q) differs from %s:\n%s", tc.args, tc.golden, firstDiff(got.String(), string(want)))
			}
		})
	}
}

func TestUnknownModeIsUsageError(t *testing.T) {
	if err := run([]string{"-mode", "push-some"}, new(bytes.Buffer)); err != errUsage {
		t.Errorf("run(-mode push-some) = %v, want errUsage", err)
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
