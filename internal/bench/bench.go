// Package bench is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§5) on the simulated testbed, using
// the paper's own methodology — ping-pong single-trip latency, the
// bandwidth formula with the 4-byte-acknowledgement correction, the
// barrier-synchronized compute-then-communicate early/late receiver
// tests, and middle-80 % trimmed means over repeated iterations.
//
// The paper's latency curves are builtin sweeps of internal/scenario,
// and Curve turns a sweep result into a table. The experiments that
// derive one cell from several runs (bandwidth, peaks, quantiles) run
// scenario Specs through Latency and Bandwidth; the few bodies the
// pattern vocabulary cannot express drive a cluster directly.
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

// Curve runs the builtin sweep id as a latency table, capping every
// point at iters messages. The grid's last axis is x (its labels are
// numbers) and the axis before it, if any, names the series; a one-axis
// sweep has a single series labelled single. y is each point's
// middle-80% trimmed-mean latency; the table is titled with the sweep's
// description.
func Curve(id string, iters int, xLabel, single string) *stats.Table {
	sw, err := scenario.SweepByName(id)
	must(err)
	axes := sw.Grid.Axes
	if len(axes) == 0 || len(axes) > 2 || len(sw.Grid.Seeds) > 0 {
		panic(fmt.Sprintf("bench: sweep %s is not a curve: want one or two axes and no seeds", id))
	}
	sw.Base.Traffic.Messages = min(sw.Base.Traffic.Messages, iters)
	res, err := scenario.RunSweep(sw, 0)
	must(err)
	if res.Failed > 0 {
		panic(fmt.Sprintf("bench: sweep %s: %d of %d points failed", id, res.Failed, res.Points))
	}

	tab := stats.NewTable(sw.Description, xLabel, "single-trip µs, middle-80% mean")
	xAxis := axes[len(axes)-1]
	var series []string
	if len(axes) > 1 {
		seriesAxis := axes[len(axes)-2]
		for i := range seriesAxis.Values {
			series = append(series, seriesAxis.Label(i))
		}
	} else {
		series = []string{single}
	}
	// The x axis is innermost, so the results run series by series.
	for i, label := range series {
		s := tab.AddSeries(label)
		for j := range xAxis.Values {
			x, err := strconv.ParseFloat(xAxis.Label(j), 64)
			must(err)
			s.Add(x, res.Results[i*len(xAxis.Values)+j].Result.Latency.TrimmedMean)
		}
	}
	return tab
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
