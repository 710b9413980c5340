package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pushpull/internal/stats"
)

// SchemaVersion is the artifact schema this package writes. Compare
// refuses artifacts from other schemas: a schema bump is a format
// change, not a regression.
const SchemaVersion = 1

// Artifact is one persisted study capture. Everything below the capture
// stamp (CapturedAt, Commit, Workers) is derived from virtual time and
// deterministic counters, so the body — see Body — is byte-identical
// for any worker count, and the Digest makes that checkable at a
// glance.
type Artifact struct {
	// Schema versions the artifact format itself.
	Schema int `json:"schema"`
	// Study and ConfigHash tie the capture to the exact configuration
	// that produced it (Study.ConfigHash).
	Study       string `json:"study"`
	Description string `json:"description,omitempty"`
	ConfigHash  string `json:"configHash"`
	// The capture stamp: wall-clock time, git commit and worker count of
	// the capturing run. Excluded from Body and Digest — two captures of
	// the same tree agree on everything else byte-for-byte.
	CapturedAt string `json:"capturedAt,omitempty"`
	Commit     string `json:"commit,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	// Jobs holds one result per study job, in study order.
	Jobs []JobResult `json:"jobs"`
	// Digest is a SHA-256 over the canonical body encoding: two
	// artifacts agree iff their studies ran identically.
	Digest string `json:"digest"`
}

// JobResult is one job's outcome: a digest pinning exactly what ran,
// and the metric summaries the regression gate compares.
type JobResult struct {
	Job    string `json:"job"`
	Kind   string `json:"kind"`
	Target string `json:"target"`
	// Units counts what ran: scenario repetitions or sweep points.
	// Failed counts units that errored; their error strings are folded
	// into the digest so a failing study cannot masquerade as a passing
	// one.
	Units  int `json:"units"`
	Failed int `json:"failed,omitempty"`
	// Runs itemizes scenario repetitions (seed, digest, virtual time);
	// sweep jobs summarize into Digest alone.
	Runs []RunRecord `json:"runs,omitempty"`
	// Digest pins the job: a SHA-256 over the per-run digests (scenario)
	// or the sweep's aggregate digest.
	Digest string `json:"digest"`
	// Metrics are the job's comparable numbers, in a fixed order.
	Metrics []Metric `json:"metrics"`
}

// RunRecord is one scenario repetition inside a job.
type RunRecord struct {
	Seed      uint64  `json:"seed"`
	Digest    string  `json:"digest,omitempty"`
	VirtualUS float64 `json:"virtualUS,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Metric is one named, unit-labelled number. Values are derived from
// virtual time or deterministic counters — never wall clock.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// metric looks a metric up by name; ok reports whether it exists.
func (jr *JobResult) metric(name string) (Metric, bool) {
	for _, m := range jr.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// addQuantiles appends the standard quantile metrics for a sample set
// under a name prefix, reusing the stats helper the scenario
// degradation section summarizes with.
func (jr *JobResult) addQuantiles(prefix, unit string, xs []float64) {
	q := stats.QuantileSummary(xs)
	jr.Metrics = append(jr.Metrics,
		Metric{Name: prefix + ".mean", Unit: unit, Value: q.Mean},
		Metric{Name: prefix + ".p50", Unit: unit, Value: q.P50},
		Metric{Name: prefix + ".p90", Unit: unit, Value: q.P90},
		Metric{Name: prefix + ".p99", Unit: unit, Value: q.P99},
		Metric{Name: prefix + ".max", Unit: unit, Value: q.Max},
	)
}

// body returns the canonical (compact) encoding of the artifact with
// the capture stamp and digest cleared — the bytes the digest covers.
func (a *Artifact) body() []byte {
	c := *a
	c.CapturedAt, c.Commit, c.Workers, c.Digest = "", "", 0, ""
	enc, err := json.Marshal(&c)
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	return enc
}

// seal computes the digest over the body. Stamp fields may be set
// before or after; they never participate.
func (a *Artifact) seal() {
	sum := sha256.Sum256(a.body())
	a.Digest = hex.EncodeToString(sum[:])
}

// Body renders the deterministic portion of the artifact indented —
// capture stamp stripped, digest kept. `make lab-check` diffs these
// bytes across worker counts.
func (a *Artifact) Body() []byte {
	c := *a
	c.CapturedAt, c.Commit, c.Workers = "", "", 0
	out, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// JSON renders the full artifact (stamp included) indented.
func (a *Artifact) JSON() []byte {
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// ParseArtifact decodes an artifact and checks its schema version. It
// does not verify the digest; LoadArtifact does.
func ParseArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("lab: parsing artifact: %w", err)
	}
	if a.Schema == 0 {
		return nil, fmt.Errorf("lab: artifact has no schema version (not a lab artifact?)")
	}
	return &a, nil
}

// VerifyDigest recomputes the body digest and reports a mismatch.
func (a *Artifact) VerifyDigest() error {
	sum := sha256.Sum256(a.body())
	if got := hex.EncodeToString(sum[:]); got != a.Digest {
		return fmt.Errorf("lab: artifact digest %s does not match its body (recomputed %s)", short(a.Digest), short(got))
	}
	return nil
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// Store is a plain directory of artifact files — no index, no
// database; `ls` is the schema.
type Store struct{ Dir string }

// DefaultStoreDir is where the CLI keeps artifacts unless told
// otherwise.
const DefaultStoreDir = "labstore"

// Put writes the artifact into the store, named
// <study>-<capturedAt>-<digest12>.json, and returns the path.
func (s Store) Put(a *Artifact) (string, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", err
	}
	stamp := strings.NewReplacer(":", "", "-", "", "T", "-", "Z", "").Replace(a.CapturedAt)
	if stamp == "" {
		stamp = "undated"
	}
	path := filepath.Join(s.Dir, fmt.Sprintf("%s-%s-%s.json", a.Study, stamp, short(a.Digest)))
	if err := os.WriteFile(path, a.JSON(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Entry is one store listing row.
type Entry struct {
	Path     string
	Artifact *Artifact
}

// List reads every artifact in the store, newest first (by capture
// stamp, then by filename so the order is total).
func (s Store) List() ([]Entry, error) {
	names, err := filepath.Glob(filepath.Join(s.Dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		a, err := ParseArtifact(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, Entry{Path: path, Artifact: a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Artifact.CapturedAt != out[j].Artifact.CapturedAt {
			return out[i].Artifact.CapturedAt > out[j].Artifact.CapturedAt
		}
		return out[i].Path > out[j].Path
	})
	return out, nil
}

// LoadArtifact reads one artifact from a path and verifies its digest
// against the body, so a hand-edited or truncated file is rejected
// before it can gate a compare or feed a show.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := ParseArtifact(data)
	if err == nil {
		err = a.VerifyDigest()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
