package lab

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"pushpull/internal/sim"
)

// This file is the lab's capture path for the BENCH_sim.json series:
// the sim-core microbenchmark trajectory that used to be appended by
// hand after a `go test -bench` run. GoBenchmarks replicates the
// tracked shapes of internal/sim/bench_test.go on the exported engine
// API so they are runnable from the CLI via testing.Benchmark, and
// AppendBenchSeries appends one capture entry without disturbing the
// existing (heterogeneous) history. Wall-clock numbers are inherently
// machine-dependent, so gobench captures never enter study artifacts
// or their digests — they are an append-only series, compared by ratio
// within one entry.

// GoBenchmark is one tracked microbenchmark.
type GoBenchmark struct {
	Name string
	Note string
	F    func(b *testing.B)
	// EventsPerOp > 1 means ns_per_op amortizes that many events (the
	// ScheduleRun batch), reported as ns_per_event.
	EventsPerOp int
}

// GoBenchmarks returns the tracked sim-core microbenchmarks, the same
// shapes BENCH_sim.json has recorded since PR 2.
func GoBenchmarks() []GoBenchmark {
	return []GoBenchmark{
		{
			Name: "BenchmarkScheduleRun", Note: "64 heap events per op", EventsPerOp: 64,
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
			Name: "BenchmarkSameTimeDispatch", Note: "one wake/Yield-shaped event per op",
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
			Name: "BenchmarkProcessSwitch", Note: "two processes yielding per op (goroutine-handoff bound)",
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
			Name: "BenchmarkTaskletSwitch", Note: "two tasklets yielding per op (inline dispatch, no goroutine handoff)",
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
			Name: "BenchmarkTimerArmCancel", Note: "one Reset+Stop cycle per op (the go-back-N retransmission shape)",
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
			},
		},
	}
}

// BenchMeasurement is one benchmark's capture, in the series' JSON
// vocabulary.
type BenchMeasurement struct {
	Name        string  `json:"name"`
	UnitNote    string  `json:"unit_note,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerEvent  float64 `json:"ns_per_event,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchSeriesEntry is one append-only capture of the whole tracked set.
type BenchSeriesEntry struct {
	CapturedAt string             `json:"captured_at"`
	Commit     string             `json:"commit,omitempty"`
	Comment    string             `json:"comment,omitempty"`
	Benchmarks []BenchMeasurement `json:"benchmarks"`
}

// CaptureGoBench runs every tracked microbenchmark via
// testing.Benchmark and returns the measurements (stamp fields left to
// the caller).
func CaptureGoBench() []BenchMeasurement {
	var out []BenchMeasurement
	for _, gb := range GoBenchmarks() {
		r := testing.Benchmark(gb.F)
		m := BenchMeasurement{
			Name:        gb.Name,
			UnitNote:    gb.Note,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if gb.EventsPerOp > 1 {
			m.NsPerEvent = m.NsPerOp / float64(gb.EventsPerOp)
		}
		out = append(out, m)
	}
	return out
}

// benchSeriesFile mirrors BENCH_sim.json's top level; series entries
// stay raw so heterogeneous historical shapes (the PR-2 before/after
// entry) survive a rewrite byte-for-byte up to re-indentation.
type benchSeriesFile struct {
	Comment string            `json:"comment"`
	Series  []json.RawMessage `json:"series"`
}

// AppendBenchSeries appends one capture entry to the series file
// (creating it if absent), preserving every existing entry verbatim.
func AppendBenchSeries(path string, entry BenchSeriesEntry) error {
	return appendSeriesEntry(path, "internal/sim hot-path microbenchmark trajectory, captured by `pushpull-lab gobench`. Append-only: each series entry is one capture, never overwritten. Compare ratios within one entry, not ns across entries — machine speed varies between captures.", entry)
}

// appendSeriesEntry is the shared append-only series writer: entries
// stay raw so heterogeneous historical shapes survive a rewrite
// byte-for-byte up to re-indentation; defaultComment seeds the file's
// top-level comment only on creation.
func appendSeriesEntry(path, defaultComment string, entry any) error {
	var file benchSeriesFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("lab: parsing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if file.Comment == "" {
		file.Comment = defaultComment
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	file.Series = append(file.Series, raw)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
