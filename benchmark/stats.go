package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 of 300 samples is three numbers, not a tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// it. With too few samples the value is still returned (the benchmark
// contract wants every metric on every run) but ok is false, and the
// caller counts the run as invalid.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// maxSlices is how many consecutive slices of a window a steady
// statistic is computed over.
const maxSlices = 6

// steadyPercentile is the median, over up to maxSlices consecutive
// slices of the time-ordered samples, of each slice's p-th percentile.
// A transient the system did not cause — a neighbour stealing the CPU
// for a second, and the backlog an open loop builds behind it — lands in
// one slice and moves a whole-window tail, but not the median of the
// slices'. There are only as many slices as leave minBeyond samples
// beyond the percentile in each; with fewer samples than one slice
// needs, ok is false.
func steadyPercentile(xs []float64, p float64) (v float64, ok bool) {
	need := int(math.Ceil(minBeyond * 100 / (100 - p)))
	k := min(maxSlices, len(xs)/need)
	if k < 1 {
		v, _ = percentile(xs, p)
		return v, false
	}
	per := make([]float64, k)
	for i := range per {
		per[i], _ = percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], p)
	}
	return median(per), true
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) does, because that is what the acceptance driver computes
// spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points over n+1 positions
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
