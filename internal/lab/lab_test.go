package lab

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testStudy is a fast two-job study for tests that do not need the full
// builtin smoke gate.
func testStudy() Study {
	return Study{
		Name: "test",
		Jobs: []Job{
			{Name: "pingpong", Kind: KindScenario, Target: "paper-internode-pingpong",
				Seeds: []uint64{1, 2}, Messages: 50},
			{Name: "intra", Kind: KindScenario, Target: "paper-intranode-pingpong",
				Messages: 50},
		},
	}
}

// TestStudyArtifactDeterminism pins the subsystem's core guarantee:
// the same study produces a byte-identical artifact body at workers=1
// and workers=8 — the sweep-check guarantee, extended to whole studies.
func TestStudyArtifactDeterminism(t *testing.T) {
	st, err := StudyByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := RunStudy(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := RunStudy(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Stamps differ by construction; bodies must not.
	a1.CapturedAt, a1.Workers = "2026-01-01T00:00:00Z", 1
	a8.CapturedAt, a8.Workers = "2026-01-02T00:00:00Z", 8
	if a1.Digest != a8.Digest {
		t.Errorf("artifact digest differs across worker counts: %s vs %s", a1.Digest, a8.Digest)
	}
	if !bytes.Equal(a1.Body(), a8.Body()) {
		t.Errorf("artifact bodies differ across worker counts")
	}
}

// TestRunStudyRepeatable: two runs of the same study agree byte for
// byte — an artifact is reproducible from its config alone.
func TestRunStudyRepeatable(t *testing.T) {
	st := testStudy()
	a, err := RunStudy(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStudy(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Body(), b.Body()) {
		t.Errorf("rerun changed the artifact body")
	}
	if err := a.VerifyDigest(); err != nil {
		t.Errorf("fresh artifact fails digest verification: %v", err)
	}
}

// TestBuiltinStudiesValidate: every shipped study must expand cleanly,
// and the builtin names must be unique.
func TestBuiltinStudiesValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range BuiltinStudies() {
		if seen[st.Name] {
			t.Errorf("duplicate builtin study name %q", st.Name)
		}
		seen[st.Name] = true
		if err := st.Validate(); err != nil {
			t.Errorf("builtin study %q fails validation: %v", st.Name, err)
		}
	}
	for _, want := range []string{"smoke", "collectives", "faults", "longvector"} {
		if !seen[want] {
			t.Errorf("builtin study %q missing", want)
		}
	}
}

// TestStudyValidationFieldErrors: malformed configs must fail expansion
// with errors naming the job and field.
func TestStudyValidationFieldErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Study)
		wantSub []string
	}{
		{"no name", func(s *Study) { s.Name = "" }, []string{"no name"}},
		{"slash in name", func(s *Study) { s.Name = "a/b" }, []string{"must not contain"}},
		{"no jobs", func(s *Study) { s.Jobs = nil }, []string{"jobs is empty"}},
		{"empty job name", func(s *Study) { s.Jobs[1].Name = "" }, []string{"jobs[1]", "name is empty"}},
		{"duplicate job name", func(s *Study) { s.Jobs[1].Name = s.Jobs[0].Name }, []string{"jobs[1]", "duplicate"}},
		{"empty target", func(s *Study) { s.Jobs[0].Target = "" }, []string{"jobs[0]", "target is empty"}},
		{"unknown kind", func(s *Study) { s.Jobs[0].Kind = "scenrio" }, []string{"jobs[0]", `unknown kind "scenrio"`}},
		{"unknown scenario", func(s *Study) { s.Jobs[0].Target = "no-such-scenario" }, []string{"jobs[0]", "target", "no-such-scenario"}},
		{"negative repetitions", func(s *Study) { s.Jobs[0].Repetitions = -1 }, []string{"jobs[0]", "repetitions -1"}},
		{"seeds and repetitions", func(s *Study) { s.Jobs[0].Repetitions = 3 }, []string{"jobs[0]", "mutually exclusive"}},
		{"retired bench kind", func(s *Study) { s.Jobs[0] = Job{Name: "b", Kind: "bench", Target: "btp2"} },
			[]string{"jobs[0]", `unknown kind "bench"`}},
		{"seed on sweep", func(s *Study) { s.Jobs[0] = Job{Name: "sw", Kind: KindSweep, Target: "smoke-grid", Seed: 3} },
			[]string{"jobs[0]", "seed does not apply to sweep"}},
		{"unknown sweep", func(s *Study) { s.Jobs[0] = Job{Name: "sw", Kind: KindSweep, Target: "no-such-sweep"} },
			[]string{"jobs[0]", "no-such-sweep"}},
	}
	for _, tc := range cases {
		st := testStudy()
		tc.mutate(&st)
		err := st.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
			continue
		}
		for _, sub := range tc.wantSub {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, sub)
			}
		}
	}
}

// TestParseStudyRoundTrip: JSON() output parses back to an equal hash.
func TestParseStudyRoundTrip(t *testing.T) {
	st := testStudy()
	back, err := ParseStudy(st.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigHash() != st.ConfigHash() {
		t.Errorf("round-tripped study hash differs")
	}
}

// TestParseStudyStrict: unknown study or job fields, and data after the
// study, are errors that name the problem.
func TestParseStudyStrict(t *testing.T) {
	const job = `{"name":"a","kind":"scenario","target":"paper-internode-pingpong"`
	for _, tc := range []struct {
		name, in, want string
	}{
		{"unknown field", `{"name":"s","bogus":1,"jobs":[` + job + `}]}`, `"bogus"`},
		{"stale parallelWorkers", `{"name":"s","jobs":[` + job + `,"parallelWorkers":4}]}`, `"parallelWorkers"`},
		{"misspelled job field", `{"name":"s","jobs":[` + job + `,"repetition":2}]}`, `"repetition"`},
		{"trailing data", `{"name":"s","jobs":[` + job + `}]}{}`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseStudy([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseStudy(%s) = %v, want error containing %s", tc.in, err, tc.want)
			}
		})
	}
}

// TestStoreNewestFirst: List orders artifacts by capture stamp,
// newest first.
func TestStoreNewestFirst(t *testing.T) {
	dir := t.TempDir()
	s := Store{Dir: dir}
	st := testStudy()
	a, err := RunStudy(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, stamp := range []string{"2026-01-01T00:00:00Z", "2026-03-01T00:00:00Z", "2026-02-01T00:00:00Z"} {
		c := *a
		c.CapturedAt = stamp
		if _, err := s.Put(&c); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("List() = %d entries, want 3", len(entries))
	}
	want := []string{"2026-03-01T00:00:00Z", "2026-02-01T00:00:00Z", "2026-01-01T00:00:00Z"}
	for i, e := range entries {
		if e.Artifact.CapturedAt != want[i] {
			t.Errorf("entry %d capturedAt = %s, want %s", i, e.Artifact.CapturedAt, want[i])
		}
	}
}

// TestBaselineMatchesCurrent is the in-process form of `make
// lab-check`'s compare leg: the checked-in smoke baseline must match a
// fresh capture exactly. When this fails after an intentional
// wire-behavior change, recapture with `make lab-baseline` (the only
// legitimate path — see README).
func TestBaselineMatchesCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline compare runs the full smoke study")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "baseline-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ParseArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.VerifyDigest(); err != nil {
		t.Fatalf("checked-in baseline is corrupt: %v", err)
	}
	st, err := StudyByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunStudy(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(baseline, fresh, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitOK {
		t.Errorf("fresh smoke capture does not match the checked-in baseline (exit %d):\n%s", code, c.Render())
	}
}
