package bench

import (
	"math"
	"testing"
)

// The bench measurement primitives were refactored to run through the
// scenario engine (internal/scenario). The simulation is deterministic,
// so the refactor must not move a single number: these values were
// captured from the pre-refactor drivers at seed 1 and are pinned
// exactly. A diff here means the scenario patterns no longer execute
// the paper's measurement loops operation for operation.
func TestScenarioRefactorPreservesBenchNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned-number equivalence is not meaningful at reduced iteration counts")
	}
	pin := func(name string, got, want float64) {
		t.Helper()
		// The values are deterministic; the tolerance only absorbs
		// last-bit float noise from summary arithmetic.
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %.9f, pre-refactor value was %.9f", name, got, want)
		}
	}

	pin("internode 1400B single-trip µs", Latency(testbed(1400, 100)).TrimmedMean, 158.484)

	wi := intranode(testbed(10, 100))
	wi.Protocol.PushedBufBytes = 12 << 10
	pin("intranode 10B single-trip µs", Latency(wi).TrimmedMean, 7.169)

	pin("internode 8192B bandwidth MB/s", Bandwidth(testbed(8192, 50)), 11.118078006)

	we := testbed(2048, 50)
	we.Protocol.PushedBufBytes = 4096
	pin("early receiver 2048B µs", Latency(earlyLate(we, 500_000, 100_000)).TrimmedMean, 2720.123)
	pin("late receiver 2048B µs", Latency(earlyLate(we, 100_000, 300_000)).TrimmedMean, 1192.095)

	pin("push-all 3072B one-shot recovery µs", Latency(pushAllLateOneShot()).Mean, 150347.881)
}
