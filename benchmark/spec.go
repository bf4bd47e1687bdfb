package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is set
// on end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// workloads are the harness's four, in the order `all` runs them.
// BENCHMARK.json lists the first three: those are what the acceptance
// driver runs and gates on. mixed_open is run by hand and by `all`, and
// judged by `compare`, but a window of it holds some 200 writes, too few
// for a median that ten seeds agree on within any bound the contract
// allows (README, "mixed_open is not gated").
var workloads = []string{"ranked_scan", "filtered_mix", "write_churn", "mixed_open"}

// spec is BENCHMARK.json: the one place metric names, units, directions
// and regression bounds live. The harness emits exactly the metrics it
// lists, and compare applies exactly its bounds.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints, in the benchmark contract's
// shape.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Printed for the reader, not part of the contract's object: the
	// end-to-end metrics as measured, and how much slower than the
	// reference host the probe ran over the whole run.
	raw        map[string]float64
	hostFactor float64
}

// newReport selects the declared metrics (end-to-end for an untraced
// run, per-layer for a traced one) out of the computed values. A
// declared metric the run did not compute is a harness bug.
func newReport(s *spec, traced bool, values map[string]float64) (*report, error) {
	specs := s.EndToEnd
	if traced {
		specs = s.PerLayer
	}
	r := &report{Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return r, nil
}
