// Package stats provides the small statistical and text-charting toolkit
// the experiment harness uses to report paper figures: means, maxima,
// percentiles, CDFs, and the density characters of text heatmaps.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CDF computes the empirical cumulative distribution of xs at the given
// probe points: result[i] = P(X ≤ probes[i]).
func CDF(xs, probes []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(probes))
	for i, p := range probes {
		out[i] = float64(sort.SearchFloat64s(sorted, math.Nextafter(p, math.Inf(1)))) / float64(len(sorted))
	}
	return out
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// HeatRune maps an intensity in [0,1] to a density character for text
// heatmaps (Figure 5).
func HeatRune(v float64) rune {
	scale := []rune(" .:-=+*#%@")
	i := int(v * float64(len(scale)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(scale) {
		i = len(scale) - 1
	}
	return scale[i]
}
