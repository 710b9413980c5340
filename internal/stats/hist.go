package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-quantile of xs (p in [0, 1]) by linear
// interpolation between order statistics. It returns NaN for empty input
// and clamps p into range.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// Histogram is a fixed-width binning of samples, for jitter analysis of
// latency distributions (trimmed means hide exactly the tails a shared
// medium or a retransmission timeout produces).
type Histogram struct {
	Lo, Hi float64 // value range covered, [Lo, Hi]
	Counts []int   // one per bin
	Under  int     // samples below Lo (only when an explicit range is set)
	Over   int     // samples above Hi
	N      int     // total samples
	width  float64
}

// NewHistogram bins xs into bins equal-width buckets spanning the sample
// range. It returns nil for empty input or bins < 1.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 || bins < 1 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return NewHistogramRange(xs, bins, lo, hi)
}

// NewHistogramRange bins xs into bins equal-width buckets spanning
// [lo, hi]; samples outside are counted in Under/Over. It returns nil
// for empty input, bins < 1, or hi < lo.
func NewHistogramRange(xs []float64, bins int, lo, hi float64) *Histogram {
	if len(xs) == 0 || bins < 1 || hi < lo {
		return nil
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), N: len(xs)}
	if hi == lo {
		h.width = 1 // every in-range sample lands in bin 0
	} else {
		h.width = (hi - lo) / float64(bins)
	}
	for _, x := range xs {
		switch {
		case x < lo:
			h.Under++
		case x > hi:
			h.Over++
		default:
			// The division can overflow int for extreme float ranges
			// (denormal widths, ±1e308 spans); clamp through float64.
			pos := (x - lo) / h.width
			i := bins - 1
			if pos < float64(bins) {
				i = int(pos)
			}
			if i < 0 {
				i = 0
			}
			h.Counts[i]++
		}
	}
	return h
}

// BinRange reports the half-open value range [lo, hi) of bin i (the last
// bin is closed).
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	return h.Lo + float64(i)*h.width, h.Lo + float64(i+1)*h.width
}

// Render draws the histogram as ASCII bars, one line per bin, scaled so
// the fullest bin spans width characters.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 50
	}
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	if h.Under > 0 {
		fmt.Fprintf(&b, "%24s %6d\n", fmt.Sprintf("< %.2f", h.Lo), h.Under)
	}
	for i, c := range h.Counts {
		lo, hi := h.BinRange(i)
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&b, "[%9.2f, %9.2f) %6d %s\n", lo, hi, c, bar)
	}
	if h.Over > 0 {
		fmt.Fprintf(&b, "%24s %6d\n", fmt.Sprintf("> %.2f", h.Hi), h.Over)
	}
	return b.String()
}
