package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The protocol stack and the sim core must produce every builtin
// scenario's result byte for byte: a diff against the pinned capture
// means something reordered, dropped or duplicated at least one event
// somewhere in the stack. The digests live in testdata/digests.json so
// the capture is data, not code.
//
// Legitimate recaptures are *wire-behavior changes* — a protocol-level
// redesign (e.g. the per-channel session split), a new cost model, a new
// builtin scenario. Run:
//
//	make digests
//
// and review the diff: every changed digest must be explainable by the
// change you made. A digest that moves under a pure optimization
// (scheduling, pooling, caching) is a bug, not a recapture.
var updateDigests = flag.Bool("update", false, "regenerate testdata/digests.json from the current builtin scenarios")

const digestFile = "testdata/digests.json"

func readPinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("reading pinned digests (run `make digests` to capture): %v", err)
	}
	pinned := make(map[string]string)
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("parsing %s: %v", digestFile, err)
	}
	return pinned
}

// TestBuiltinDigestsPinned runs all builtin scenarios at full size and
// compares against the pinned capture byte for byte. With -update it
// rewrites the capture instead.
func TestBuiltinDigestsPinned(t *testing.T) {
	if testing.Short() && !*updateDigests {
		t.Skip("full-size scenario runs are not short")
	}
	specs := Builtin()

	if *updateDigests {
		pinned := make(map[string]string, len(specs)+len(pinnedSweeps))
		for _, spec := range specs {
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("capturing %s: %v", spec.Name, err)
			}
			pinned[spec.Name] = res.Digest
			t.Logf("captured %-26s %s", spec.Name, res.Digest)
		}
		for _, name := range pinnedSweeps {
			res := runPinnedSweep(t, name)
			pinned[sweepDigestKey+name] = res.Digest
			t.Logf("captured %-26s %s", sweepDigestKey+name, res.Digest)
		}
		// json.MarshalIndent sorts map keys, so the capture is stable.
		out, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	pinned := readPinnedDigests(t)
	if want := len(specs) + len(pinnedSweeps); want != len(pinned) {
		t.Errorf("have %d builtin scenarios and pinned sweeps but %d pinned digests — run `make digests` and review the diff",
			want, len(pinned))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := pinned[spec.Name]
			if !ok {
				t.Fatalf("no pinned digest for %q — run `make digests` and review the diff", spec.Name)
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != want {
				t.Errorf("digest diverged from the pinned capture (wire-behavior change? run `make digests` and review):\n  got  %s\n  want %s",
					res.Digest, want)
			}
		})
	}
}

// pinnedSweeps are the builtin CI sweeps whose aggregate digests
// testdata/digests.json pins under sweepDigestKey+name. The figure
// sweeps are left out: at the paper's message counts they take seconds
// each, and pushpull-bench's tables print what they measure.
var pinnedSweeps = []string{"smoke-grid", "perm-study", "coll-smoke", "fault-smoke", "proto-grid"}

const sweepDigestKey = "sweep/"

func runPinnedSweep(t *testing.T, name string) *SweepResult {
	t.Helper()
	sw, err := SweepByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(sw, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBuiltinSweepDigestsPinned is TestBuiltinDigestsPinned for the CI
// sweeps: every point's run, its grid order and its name feed the
// aggregate digest, so a change to the expansion shows up here as well
// as a wire-behavior change.
func TestBuiltinSweepDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweep runs are not short")
	}
	pinned := readPinnedDigests(t)
	for _, name := range pinnedSweeps {
		t.Run(name, func(t *testing.T) {
			want, ok := pinned[sweepDigestKey+name]
			if !ok {
				t.Fatalf("no pinned digest for sweep %q — run `make digests` and review the diff", name)
			}
			if got := runPinnedSweep(t, name).Digest; got != want {
				t.Errorf("aggregate digest diverged from the pinned capture:\n  got  %s\n  want %s", got, want)
			}
		})
	}
}
