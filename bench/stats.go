package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which it
// sorts in place. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (the mean of the middle two for an
// even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// slicedPercentile is the issue's percentile rule. When every slice holds at
// least minTail values it reports the median over the slices of each slice's
// own p-quantile, which a burst from a neighbour on the box can spoil in one
// slice only; otherwise it pools the window, which must then hold minTail
// values itself. perSlice is the per-slice quantiles when the first rule
// applied, ok is false when the window is undersized.
func slicedPercentile(slices [][]float64, p float64, minTail int) (value float64, perSlice []float64, n int, ok bool) {
	every := len(slices) > 0
	for _, s := range slices {
		n += len(s)
		every = every && len(s) >= minTail
	}
	if every {
		for _, s := range slices {
			perSlice = append(perSlice, percentile(s, p))
		}
		return median(perSlice), perSlice, n, true
	}
	if n < minTail {
		return math.NaN(), nil, n, false
	}
	pooled := make([]float64, 0, n)
	for _, s := range slices {
		pooled = append(pooled, s...)
	}
	return percentile(pooled, p), nil, n, true
}

// spread is the distance between the first and third quartile of xs as a
// share of their median — the steadiness measure the contract applies to ten
// seeds, here also applied to the slices of one window. Fewer than two values
// have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartile(s, 1), quartile(s, 3)
	if m := median(s); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// quartile is the exclusive-method quartile Python's statistics.quantiles(n=4)
// computes, on sorted input.
func quartile(sorted []float64, q int) float64 {
	n := len(sorted)
	pos := float64(q) * float64(n+1) / 4
	j := int(pos)
	j = min(max(j, 1), n-1)
	d := pos - float64(j)
	return sorted[j-1] + d*(sorted[j]-sorted[j-1])
}

// selfTime is a layer's span minus the span of the layer beneath it on the
// same inputs. Timing noise can make the inner span the longer one; the self
// time is then zero and the ledger's residual picks up the difference.
func selfTime(outer, inner float64) float64 { return math.Max(0, outer-inner) }
