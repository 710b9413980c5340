package lab

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureOnce runs the fast test study a single time; tests clone the
// artifact instead of re-running the simulation.
var captured *Artifact

func capture(t *testing.T) *Artifact {
	t.Helper()
	if captured == nil {
		a, err := RunStudy(testStudy(), 2)
		if err != nil {
			t.Fatal(err)
		}
		a.CapturedAt = "2026-01-01T00:00:00Z"
		captured = a
	}
	clone, err := ParseArtifact(captured.JSON())
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// TestCompareIdentical: an artifact compared against its own clone is
// clean — exit 0, no digest changes, no regressions.
func TestCompareIdentical(t *testing.T) {
	a, b := capture(t), capture(t)
	c, err := Compare(a, b, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitOK {
		t.Errorf("ExitCode() = %d, want %d:\n%s", code, ExitOK, c.Render())
	}
	if len(c.Deltas) == 0 {
		t.Errorf("comparison produced no metric deltas — nothing was compared")
	}
}

// TestComparePerturbedMetric pins the acceptance gate: a metric pushed
// beyond tolerance must fail with the metric-regression exit code.
func TestComparePerturbedMetric(t *testing.T) {
	a, b := capture(t), capture(t)
	// virtualUS carries the default 5% tolerance; +10% must trip it.
	m := findMetric(t, b, "pingpong", "virtualUS")
	m.Value *= 1.10
	c, err := Compare(a, b, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitMetricRegression {
		t.Fatalf("ExitCode() = %d, want %d:\n%s", code, ExitMetricRegression, c.Render())
	}
	if len(c.Regressions) != 1 || c.Regressions[0].Metric != "virtualUS" {
		t.Errorf("Regressions = %+v, want exactly the perturbed virtualUS", c.Regressions)
	}
	if !strings.Contains(c.Render(), "METRIC") {
		t.Errorf("Render() does not flag the metric regression:\n%s", c.Render())
	}
	// The same delta passes once the tolerance is widened — the knob the
	// CLI's -tol flag turns.
	tol := DefaultTolerances()
	tol.PerMetric["virtualUS"] = 0.25
	c2, err := Compare(a, b, tol)
	if err != nil {
		t.Fatal(err)
	}
	if code := c2.ExitCode(); code != ExitOK {
		t.Errorf("with widened tolerance ExitCode() = %d, want %d", code, ExitOK)
	}
}

// TestCompareExactCounterZeroTolerance: counters like receives carry
// tolerance 0 — any drift at all is a regression.
func TestCompareExactCounterZeroTolerance(t *testing.T) {
	a, b := capture(t), capture(t)
	m := findMetric(t, b, "pingpong", "receives")
	m.Value++
	c, err := Compare(a, b, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitMetricRegression {
		t.Errorf("ExitCode() = %d, want %d after a one-count drift in receives", code, ExitMetricRegression)
	}
}

// TestComparePerturbedDigest pins the other acceptance gate: a changed
// job digest is a hard failure with its own exit code, and it outranks
// any metric regression.
func TestComparePerturbedDigest(t *testing.T) {
	a, b := capture(t), capture(t)
	b.Jobs[0].Digest = strings.Repeat("0", 64)
	// Also perturb a metric: digest must still win.
	findMetric(t, b, "intra", "virtualUS").Value *= 2
	c, err := Compare(a, b, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitDigestChange {
		t.Fatalf("ExitCode() = %d, want %d:\n%s", code, ExitDigestChange, c.Render())
	}
	if len(c.DigestChanged) != 1 || c.DigestChanged[0] != "pingpong" {
		t.Errorf("DigestChanged = %v, want [pingpong]", c.DigestChanged)
	}
	if !strings.Contains(c.Render(), "DIGEST") {
		t.Errorf("Render() does not flag the digest change:\n%s", c.Render())
	}
}

// TestCompareMissingJob: a job present in only one artifact counts as a
// digest change, whichever side it is missing from.
func TestCompareMissingJob(t *testing.T) {
	a, b := capture(t), capture(t)
	b.Jobs = b.Jobs[:1]
	c, err := Compare(a, b, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitDigestChange {
		t.Errorf("job missing from B: ExitCode() = %d, want %d", code, ExitDigestChange)
	}
	c, err = Compare(b, a, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if code := c.ExitCode(); code != ExitDigestChange {
		t.Errorf("job missing from A: ExitCode() = %d, want %d", code, ExitDigestChange)
	}
}

// TestCompareRefusals: comparisons across different configurations,
// studies or schemas are refused with an error — not reported as
// regressions.
func TestCompareRefusals(t *testing.T) {
	a, b := capture(t), capture(t)
	b.ConfigHash = strings.Repeat("f", 64)
	if _, err := Compare(a, b, DefaultTolerances()); err == nil {
		t.Errorf("config hash mismatch: Compare() = nil error, want refusal")
	} else if !strings.Contains(err.Error(), "lab-baseline") {
		t.Errorf("config hash refusal %q does not point at make lab-baseline", err)
	}

	b = capture(t)
	b.Study = "other"
	if _, err := Compare(a, b, DefaultTolerances()); err == nil {
		t.Errorf("study mismatch: Compare() = nil error, want refusal")
	}

	b = capture(t)
	b.Schema = SchemaVersion + 1
	if _, err := Compare(a, b, DefaultTolerances()); err == nil {
		t.Errorf("schema mismatch: Compare() = nil error, want refusal")
	}
}

// TestArtifactTamperDetection: VerifyDigest catches a hand-edited
// artifact body.
func TestArtifactTamperDetection(t *testing.T) {
	a := capture(t)
	if err := a.VerifyDigest(); err != nil {
		t.Fatalf("clean artifact fails verification: %v", err)
	}
	findMetric(t, a, "pingpong", "bytes").Value++
	if err := a.VerifyDigest(); err == nil {
		t.Errorf("tampered artifact passes digest verification")
	}
}

// TestLoadArtifactRejectsTampered: the loader compare and show use
// refuses a file whose body no longer matches its digest.
func TestLoadArtifactRejectsTampered(t *testing.T) {
	a := capture(t)
	path := filepath.Join(t.TempDir(), "a.json")
	if err := os.WriteFile(path, a.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(path); err != nil {
		t.Fatalf("clean artifact fails to load: %v", err)
	}
	findMetric(t, a, "pingpong", "virtualUS").Value *= 1.01
	if err := os.WriteFile(path, a.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(path); err == nil {
		t.Errorf("LoadArtifact accepted an artifact whose body does not match its digest")
	}
}

// TestParseArtifactRejectsUnversioned: schema 0 (or pre-schema JSON) is
// not a lab artifact.
func TestParseArtifactRejectsUnversioned(t *testing.T) {
	if _, err := ParseArtifact([]byte(`{"study":"x","jobs":[]}`)); err == nil {
		t.Errorf("ParseArtifact accepted JSON without a schema version")
	}
	if _, err := ParseArtifact([]byte(`not json`)); err == nil {
		t.Errorf("ParseArtifact accepted malformed JSON")
	}
}

// findMetric returns a pointer into the artifact's metric slice so
// tests can perturb values in place.
func findMetric(t *testing.T, a *Artifact, job, name string) *Metric {
	t.Helper()
	for i := range a.Jobs {
		if a.Jobs[i].Job != job {
			continue
		}
		for k := range a.Jobs[i].Metrics {
			if a.Jobs[i].Metrics[k].Name == name {
				return &a.Jobs[i].Metrics[k]
			}
		}
	}
	t.Fatalf("artifact has no metric %s/%s", job, name)
	return nil
}
