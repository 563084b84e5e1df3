package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is not modified; an empty
// sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the percentiles a summary may report beyond the
// median, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile picks the highest of tailPercentiles that still has at
// least ten of n samples beyond it, so a reported tail is never read off
// one or two outliers. ok is false when n is too small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate rounding in 100-p
			return p, true
		}
	}
	return 0, false
}

// summarize renders one metric's samples as the median, the highest
// percentile that has at least ten samples beyond it, and the sample
// count.
func summarize(name, unit string, xs []float64) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%-22s %-7s no samples", name, unit)
	}
	line := fmt.Sprintf("%-22s %-7s median=%-12.6g", name, unit, median(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		line += fmt.Sprintf(" p%g=%-12.6g", p, quantile(xs, p/100))
	} else {
		line += " tail=n/a(n<100)"
	}
	return line + fmt.Sprintf(" n=%d", len(xs))
}
