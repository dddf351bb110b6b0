package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// the nearest-rank rule, 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder is the fixed set of percentiles the supported-tail picker
// chooses from, lowest first.
var tailLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.995, 0.999, 0.9999}

// supportedTail picks the highest percentile of the ladder that still has at
// least minBeyond samples above it — the highest tail figure n samples can
// support. It returns the percentile (as a fraction) and the number of
// samples beyond it; with fewer than 2*minBeyond samples it falls back to
// the median.
func supportedTail(n, minBeyond int) (q float64, beyond int) {
	q = tailLadder[0]
	for _, cand := range tailLadder {
		if b := n - int(math.Ceil(cand*float64(n))); b >= minBeyond {
			q, beyond = cand, b
		}
	}
	if beyond == 0 {
		beyond = n - int(math.Ceil(q*float64(n)))
	}
	return q, beyond
}

// median of an unsorted slice (copied, not reordered); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does,
// so spreads computed here match the ones the acceptance driver computes.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // may fall outside [0,4]: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// steadiness figure every bound is judged against. 0 for fewer than two
// values or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
