// Package bench is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§5) on the simulated testbed, using
// the paper's own methodology — ping-pong single-trip latency, the
// bandwidth formula with the 4-byte-acknowledgement correction, the
// barrier-synchronized compute-then-communicate early/late receiver
// tests, and middle-80 % trimmed means over repeated iterations.
//
// Every multi-point table reads a builtin sweep of internal/scenario
// through Table, which measures each point (trimmed mean, plain mean or
// Bandwidth) and lays the values out by the sweep's axes. The headline
// table and the hub's latency quantiles run scenario Specs of their own;
// the few bodies the pattern vocabulary cannot express drive a cluster
// directly, and the collective ones share one barrier-timed loop.
package bench

import (
	"fmt"
	"strconv"

	"pushpull/internal/scenario"
	"pushpull/internal/stats"
)

// run runs s on the scenario engine. Experiment specs are code, not
// input, so an error is a bug.
func run(s scenario.Spec, opts ...scenario.RunOption) *scenario.Result {
	res, err := scenario.Run(s, opts...)
	must(err)
	return res
}

// Latency runs s and summarizes its per-message latency samples (µs)
// with the paper's middle-80% trimmed mean: single trips for the
// pingpong and earlylate patterns, the completion time of the one
// transfer for oneshot.
func Latency(s scenario.Spec) stats.Summary { return run(s).Latency }

// Bandwidth measures the paper's bandwidth on s's topology and protocol
// at s.Traffic.Size and s.Traffic.Messages: the time to send Size bytes
// plus a 4-byte acknowledgement back, minus the 4-byte single-trip time,
// with bandwidth = Size / that time. Returned in MB/s.
func Bandwidth(s scenario.Spec) float64 {
	small := s
	small.Traffic.Pattern, small.Traffic.Size = "pingpong", 4
	base := Latency(small).TrimmedMean // µs per 4-byte single trip

	s.Traffic.Pattern = "bandwidth"
	per := Latency(s).TrimmedMean - base
	if per <= 0 {
		return 0
	}
	return float64(s.Traffic.Size) / per // bytes/µs == MB/s
}

// Table expands sw, measures every point with y across
// scenario.ParallelFor and lays the values out as a table. The grid's
// last axis is x, and its labels are numbers; the axis before it, if
// any, names the series. y returns one value per series: exactly one
// when the grid has a series axis, otherwise one for each label in
// single, so several series can share one run of a point.
func Table(sw scenario.Sweep, title, xLabel, yLabel string, y func(scenario.Spec) []float64, single ...string) *stats.Table {
	axes := sw.Grid.Axes
	if len(axes) == 0 || len(axes) > 2 || len(sw.Grid.Seeds) > 0 {
		panic(fmt.Sprintf("bench: sweep %s is not a table: want one or two axes and no seeds", sw.Name))
	}
	points, err := sw.Expand()
	must(err)
	vals := make([][]float64, len(points))
	scenario.ParallelFor(len(points), 0, func(i int) { vals[i] = y(points[i].Spec) })

	xAxis := axes[len(axes)-1]
	xs := make([]float64, len(xAxis.Values))
	for j := range xs {
		xs[j], err = strconv.ParseFloat(xAxis.Label(j), 64)
		must(err)
	}
	tab := stats.NewTable(title, xLabel, yLabel)
	// The x axis is innermost, so the points run in rows of len(xs),
	// one row per value of the series axis.
	add := func(label string, row, k int) {
		s := tab.AddSeries(label)
		for j, x := range xs {
			s.Add(x, vals[row*len(xs)+j][k])
		}
	}
	if len(axes) == 2 {
		for row := range axes[0].Values {
			add(axes[0].Label(row), row, 0)
		}
	} else {
		for k, label := range single {
			add(label, 0, k)
		}
	}
	return tab
}

// trimmedMean and bandwidth are the one-value measures of Table: a
// point's middle-80% trimmed-mean latency, and its Bandwidth.
func trimmedMean(s scenario.Spec) []float64 { return []float64{Latency(s).TrimmedMean} }
func bandwidth(s scenario.Spec) []float64   { return []float64{Bandwidth(s)} }

// sweep returns the builtin sweep id.
func sweep(id string) scenario.Sweep {
	sw, err := scenario.SweepByName(id)
	must(err)
	return sw
}

// latencyCurve is the latency table of the builtin sweep id, every
// point capped at iters messages and the table titled with the sweep's
// description.
func latencyCurve(id string, iters int, xLabel string, single ...string) *stats.Table {
	sw := sweep(id)
	sw.Base.Traffic.Messages = min(sw.Base.Traffic.Messages, iters)
	return Table(sw, sw.Description, xLabel, "single-trip µs, middle-80% mean", trimmedMean, single...)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
