package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDirectiveValidation pins the directive contract: unknown analyzer
// names and empty reasons are reported instead of suppressing, a stack
// of directives suppresses each named analyzer on the statement that
// follows, and a directive that suppresses nothing is reported.
func TestDirectiveValidation(t *testing.T) {
	prog, err := LoadDir(filepath.Join("testdata", "src", "directives"))
	if err != nil {
		t.Fatal(err)
	}
	fs := Run(prog, Analyzers())
	var got []string
	for _, f := range fs {
		got = append(got, f.Analyzer+" "+firstWords(f.Message, 4))
	}
	want := []string{
		// unknownAnalyzer: the directive itself is malformed, and the
		// Sleep it meant to cover stays reported.
		"directive malformed pushpull:lint-allow directive: first",
		"walltime call to time.Sleep: wall",
		// missingReason: same shape.
		"directive pushpull:lint-allow walltime directive needs",
		"walltime call to time.Sleep: wall",
		// stacked: nothing — both findings on the return line are
		// suppressed by their respective directives.
		// staleAllow: the directive covers a line with no finding.
		"directive pushpull:lint-allow globalrand directive suppresses",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestStaleDirectiveNeedsItsAnalyzer: a directive is only stale
// relative to its own analyzer's findings, so a run that skips that
// analyzer cannot judge it and must not report it.
func TestStaleDirectiveNeedsItsAnalyzer(t *testing.T) {
	prog, err := LoadDir(filepath.Join("testdata", "src", "directives"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(prog, []*Analyzer{walltimeAnalyzer}) {
		if strings.Contains(f.Message, "suppresses no finding") {
			t.Errorf("walltime-only run reported a stale directive: %s", f)
		}
	}
}

func firstWords(s string, n int) string {
	words := strings.Fields(s)
	if len(words) > n {
		words = words[:n]
	}
	return strings.Join(words, " ")
}
