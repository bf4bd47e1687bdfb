package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 90, 110, 60, 140, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same runs", lower, tight, tight, unchanged},
		{"5% worse is inside the bound", lower, tight, scale(tight, 1.05), unchanged},
		{"20% slower", lower, tight, scale(tight, 1.2), regressed},
		{"20% faster", lower, tight, scale(tight, 0.8), improved},
		{"20% fewer ops", higher, tight, scale(tight, 0.8), regressed},
		{"20% more ops", higher, tight, scale(tight, 1.2), improved},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.05), unresolved},
		{"noisy but every run better", lower, noisy, scale(tight, 0.5), improved},
		{"noisy but every run worse", lower, noisy, scale(tight, 2), regressed},
	} {
		if got, _, _, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// A borrowed pair is printed but never judged: write_p99_ms doubles on
// both workloads, and only write_churn, whose own traffic produces it,
// regresses.
func TestCompareSkipsBorrowedPairs(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25}}}
	write := func(name string, p99 float64) string {
		var set resultSet
		for _, w := range []string{"ranked_scan", "write_churn"} {
			for i := 0; i < 4; i++ {
				set.Runs = append(set.Runs, runRecord{Workload: w, Seed: int64(i), report: report{
					Correct: true, Attempted: 10,
					Metrics: map[string]metricValue{"write_p99_ms": {Value: p99 + float64(i)/10, Unit: "ms"}}}})
			}
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	err := compare(sp, write("a.json", 10), write("b.json", 20), &out)
	if err == nil || err.Error() != "1 regressed" {
		t.Errorf("compare: %v, want exactly 1 regressed\n%s", err, out.String())
	}
	for _, want := range []string{"ranked_scan    write_p99_ms", "borrowed", "write_churn    write_p99_ms", "regressed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// Every workload's runs are spread over the whole series, and with two
// sides each run is made by both, back to back, alternating who is first.
func TestRunOrderInterleaves(t *testing.T) {
	names := []string{"a", "b"}
	plan := runOrder(names, 2, 5, 2)
	if len(plan) != 2*2*3 {
		t.Fatalf("%d steps, want 12", len(plan))
	}
	firsts := map[int]int{}
	for i := 0; i < len(plan); i += 2 {
		x, y := plan[i], plan[i+1]
		if x.rec.Workload != y.rec.Workload || x.rec.Seed != y.rec.Seed || x.rec.Trace != y.rec.Trace || x.side == y.side {
			t.Errorf("steps %d,%d are not one run made by both sides: %+v %+v", i, i+1, x, y)
		}
		firsts[x.side]++
		wantWorkload, round := names[i/2%2], i/4
		wantSeed, wantTrace := int64(5+round), 0
		if round == 2 {
			wantSeed, wantTrace = 5, 1
		}
		if x.rec.Workload != wantWorkload || x.rec.Seed != wantSeed || x.rec.Trace != wantTrace {
			t.Errorf("step %d is %+v, want %s seed %d trace %d", i, x.rec, wantWorkload, wantSeed, wantTrace)
		}
	}
	if firsts[0] != firsts[1] {
		t.Errorf("side 0 goes first %d times, side 1 %d times", firsts[0], firsts[1])
	}
}
