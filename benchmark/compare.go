package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of compare, per (metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
	borrowed   = "borrowed" // not judged: the workload's own traffic does not produce this metric
)

// judgedOn names the workloads whose own traffic produces a metric; a
// metric not listed is produced by every workload. The benchmark
// contract wants every end-to-end metric reported on every workload, so
// elsewhere the number is borrowed from the crash drill (or, for
// write_churn's reads, from its search look-ups of inserted scenes): the
// same workload-independent measurement repeated. Judging those copies
// would only multiply one verdict.
var judgedOn = map[string][]string{
	"read_p50_ms":  {"ranked_scan", "filtered_mix", "mixed_open"},
	"read_p95_ms":  {"ranked_scan", "filtered_mix", "mixed_open"},
	"write_p50_ms": {"write_churn", "mixed_open"},
	"write_p99_ms": {"write_churn"},
	"restart_s":    {"write_churn"},
}

func judged(metric, workload string) bool {
	on, listed := judgedOn[metric]
	return !listed || slices.Contains(on, workload)
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one end-to-end metric's values over a workload's
// untraced runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// errorRatio is failed ÷ attempted over a workload's runs.
func (s *resultSet) errorRatio(workload string) float64 {
	var failed, attempted float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += float64(r.Failed)
			attempted += float64(r.Attempted)
		}
	}
	return ratio(failed, attempted)
}

// judge compares the change's runs (b) with the parent's (a) on one
// metric. The change regressed when its median is worse by more than
// the bound. When either side's interquartile spread is itself wider
// than the bound the medians cannot settle it: the pair is unresolved
// unless every run of one side beats every run of the other. An
// improvement must exceed the parent's own spread.
func judge(m metricSpec, a, b []float64) (verdict string, medA, medB, spread float64) {
	medA, medB = median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spreadA := ratio(q3a-q1a, medA)
	spread = max(spreadA, ratio(q3b-q1b, medB))
	// cost orients a value so that larger is worse, whatever the metric.
	cost := func(x float64) float64 {
		if m.Better == "higher" {
			return -x
		}
		return x
	}
	worse := ratio(cost(medB)-cost(medA), medA)
	var bAlwaysBetter, bAlwaysWorse = true, true
	for _, x := range a {
		for _, y := range b {
			bAlwaysBetter = bAlwaysBetter && cost(y) < cost(x)
			bAlwaysWorse = bAlwaysWorse && cost(y) > cost(x)
		}
	}
	switch {
	case spread > m.Bound && bAlwaysBetter:
		verdict = improved
	case spread > m.Bound && bAlwaysWorse:
		verdict = regressed
	case spread > m.Bound:
		verdict = unresolved
	case worse > m.Bound:
		verdict = regressed
	case -worse > spreadA && bAlwaysBetter:
		verdict = improved
	default:
		verdict = unchanged
	}
	return verdict, medA, medB, spread
}

// compare prints a verdict for every (end-to-end metric, workload) pair
// the workload's own traffic produces, and the error ratio of each
// workload, and fails on any regression.
func compare(sp *spec, pathA, pathB string, w io.Writer) error {
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	regressions := 0
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values(wl, m.Name), b.values(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-14s no runs on one side\n", wl, m.Name)
				continue
			}
			verdict, medA, medB, spread := judge(m, va, vb)
			if !judged(m.Name, wl) {
				verdict = borrowed
			}
			if verdict == regressed {
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl, m.Name, medA, medB, 100*ratio(medB-medA, medA), 100*spread, 100*m.Bound, verdict)
		}
		// Any rise above the parent counts: an answer that was right is now wrong.
		ea, eb := a.errorRatio(wl), b.errorRatio(wl)
		verdict := unchanged
		if eb > ea {
			verdict = regressed
			regressions++
		} else if eb < ea {
			verdict = improved
		}
		fmt.Fprintf(w, "%-14s %-14s %12.6f %12.6f %37s\n", wl, "error_ratio", ea, eb, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressed", regressions)
	}
	return nil
}
