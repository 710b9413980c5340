package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateTables = flag.Bool("update", false, "rewrite testdata/tables.golden from the current experiments")

const tablesGolden = "testdata/tables.golden"

// TestSmokeAll runs every experiment at 30 iterations and compares its
// rendered tables (titles, comments and values) with the pinned capture
// in testdata/tables.golden. The simulator is deterministic, so any
// difference is a changed number or wording: a refactor of the bench or
// sweep layers must leave the file untouched. `make figures` rewrites
// it, which is legitimate only for wire-behaviour changes, under the
// same policy as `make digests`.
func TestSmokeAll(t *testing.T) {
	exps := All()
	var b strings.Builder
	for i, tabs := range RunExperiments(exps, Params{Iters: 30}, 0) {
		fmt.Fprintf(&b, "== %s\n", exps[i].ID)
		for _, tab := range tabs {
			b.WriteString(tab.Render())
			b.WriteByte('\n')
		}
	}
	got := b.String()

	if *updateTables {
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("reading %s (run `make figures` to capture): %v", tablesGolden, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", tablesGolden, i+1, g, w)
		}
	}
}
