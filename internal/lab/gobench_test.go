package lab

import "testing"

// TestGoBenchmarksRun: every tracked microbenchmark executes one
// iteration cleanly, and the names the repo benchmark
// (benchmark/micro.go) looks up are all defined, so a removed body
// fails here before the separate benchmark module stops building.
func TestGoBenchmarksRun(t *testing.T) {
	byName := make(map[string]GoBenchmark)
	for _, gb := range GoBenchmarks() {
		gb := gb
		byName[gb.Name] = gb
		t.Run(gb.Name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				if b.N > 1 {
					b.Skip()
				}
				gb.F(b)
			})
			_ = r
		})
	}
	for _, name := range []string{
		"BenchmarkScheduleRun",
		"BenchmarkSameTimeDispatch",
		"BenchmarkProcessSwitch",
		"BenchmarkTaskletSwitch",
		"BenchmarkTimerArmCancel",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("GoBenchmarks has no %s", name)
		}
	}
	if got := byName["BenchmarkScheduleRun"].EventsPerOp; got != 64 {
		t.Errorf("BenchmarkScheduleRun EventsPerOp = %d, want 64", got)
	}
}
