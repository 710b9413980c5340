package sim_test

import (
	"strings"
	"testing"

	"pushpull/internal/lab"
)

// BenchmarkSim runs the sim-core microbenchmarks, whose one definition
// is lab.GoBenchmarks (the repo benchmark reads the same bodies for its
// sim.* metrics): `go test -bench . -benchmem ./internal/sim`.
func BenchmarkSim(b *testing.B) {
	for _, gb := range lab.GoBenchmarks() {
		gb := gb
		b.Run(strings.TrimPrefix(gb.Name, "Benchmark"), func(b *testing.B) {
			gb.F(b)
			if gb.EventsPerOp > 1 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gb.EventsPerOp), "ns/event")
			}
		})
	}
}
