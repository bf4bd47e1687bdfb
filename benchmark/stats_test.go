package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // exactly ten beyond
		{999, 99, 990, false}, // nine beyond
		{200, 95, 190, true},  // ten beyond
		{199, 95, 190, false}, // nine beyond
		{100, 50, 50, true},   // a median has half the samples beyond it
		{1, 99, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, p%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestPercentileIgnoresInputOrder(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got, _ := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3, 9.8, 10.0, 10.6, 9.9}, 9.9, 10.3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// One slice of a window hit by a stall: the whole-window p95 moves, the
// median of the slices' p95 does not.
func TestSteadyPercentileShrugsOffOneBadSlice(t *testing.T) {
	var xs []float64
	for slice := 0; slice < 6; slice++ {
		for i := 0; i < 200; i++ {
			v := 10 + float64(i%10) // 10..19, p95 = 19
			if slice == 2 {
				v *= 5 // a stalled stretch
			}
			xs = append(xs, v)
		}
	}
	steady, ok := steadyPercentile(xs, 95)
	if !ok || steady != 19 {
		t.Errorf("steady p95 = %v, %v; want 19, true", steady, ok)
	}
	if whole, _ := percentile(xs, 95); whole <= 19 {
		t.Errorf("whole-window p95 = %v; the stall should have moved it", whole)
	}
	// 399 samples leave one slice of 200 for a p95; 199 leave none.
	if _, ok := steadyPercentile(xs[:399], 95); !ok {
		t.Error("399 samples should support a p95")
	}
	if _, ok := steadyPercentile(xs[:199], 95); ok {
		t.Error("199 samples cannot support a p95")
	}
	if _, ok := steadyPercentile(xs[:19], 50); ok {
		t.Error("19 samples cannot support a median with ten beyond it")
	}
}
