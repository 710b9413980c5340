package lab

import (
	"testing"

	"pushpull/internal/sim"
)

// GoBenchmarks is the one definition of the sim-core microbenchmarks:
// the engine's hot paths — heap scheduling, same-time dispatch, process
// and tasklet context switches, and timer arm/disarm — written on the
// exported engine API. `go test -bench . ./internal/sim` runs them, and
// the repo benchmark (benchmark/micro.go) looks them up by name for its
// sim.* per-layer metrics. Wall-clock numbers never enter study
// artifacts or their digests.

// GoBenchmark is one tracked microbenchmark.
type GoBenchmark struct {
	Name string
	F    func(b *testing.B)
	// EventsPerOp > 1 means one op is that many events (the ScheduleRun
	// batch); the per-event cost is ns/op divided by it.
	EventsPerOp int
}

// GoBenchmarks returns the tracked sim-core microbenchmarks.
func GoBenchmarks() []GoBenchmark {
	return []GoBenchmark{
		{
			// Raw event throughput: 64 future events per op through the heap.
			Name: "BenchmarkScheduleRun", EventsPerOp: 64,
			F: func(b *testing.B) {
				e := sim.NewEngine(1)
				const batch = 64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < batch; j++ {
						e.Schedule(sim.Duration(j%16)*sim.Microsecond, func() {})
					}
					e.Run()
				}
			},
		},
		{
			// The wake/Yield shape: every event schedules its successor at
			// the current virtual time.
			Name: "BenchmarkSameTimeDispatch",
			F: func(b *testing.B) {
				e := sim.NewEngine(1)
				b.ReportAllocs()
				b.ResetTimer()
				n := 0
				var step func()
				step = func() {
					if n < b.N {
						n++
						e.Schedule(0, step)
					}
				}
				e.Schedule(0, step)
				e.Run()
			},
		},
		{
			// One process resume: two processes alternately yielding, so
			// each resume passes control straight from one carrier
			// goroutine to the other (one goroutine switch).
			Name: "BenchmarkProcessSwitch",
			F: func(b *testing.B) {
				e := sim.NewEngine(1)
				body := func(p *sim.Process) {
					for i := 0; i < b.N; i++ {
						p.Yield()
					}
				}
				e.Go("a", body)
				e.Go("b", body)
				b.ReportAllocs()
				b.ResetTimer()
				e.Run()
			},
		},
		{
			// The inline tier's counterpart: two tasklets alternately
			// yielding. The gap to ProcessSwitch is the goroutine handoff
			// the tasklet tier eliminates.
			Name: "BenchmarkTaskletSwitch",
			F: func(b *testing.B) {
				e := sim.NewEngine(1)
				mk := func(name string) *sim.Tasklet {
					n := 0
					var tk *sim.Tasklet
					tk = e.NewTasklet(name, func(*sim.Tasklet) {
						if n < b.N {
							n++
							tk.Sleep(0)
						}
					})
					return tk
				}
				mk("a").Start()
				mk("b").Start()
				b.ReportAllocs()
				b.ResetTimer()
				e.Run()
			},
		},
		{
			// The go-back-N retransmission shape: arm a timer, then disarm it
			// before expiry, once per op.
			Name: "BenchmarkTimerArmCancel",
			F: func(b *testing.B) {
				e := sim.NewEngine(1)
				tm := sim.NewTimer(e, func() {})
				b.ReportAllocs()
				b.ResetTimer()
				n := 0
				var step func()
				step = func() {
					if n < b.N {
						n++
						tm.Reset(sim.Millisecond)
						tm.Stop()
						e.Schedule(sim.Microsecond, step)
					}
				}
				e.Schedule(0, step)
				e.Run()
				if pending := e.Pending(); pending != 0 {
					b.Fatalf("Pending() = %d after drain, want 0", pending)
				}
			},
		},
	}
}
