package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke drives every workload end to end against the real server
// binary on a corpus a tenth of the benchmark's: every answer check, the
// crash drill, the traced path and the report shape, in seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cmd/server; skipped under -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	// The group returns once every parallel variant has finished.
	t.Run("variants", func(t *testing.T) {
		smokeVariant(t, root, sp, "mixed_open", true)
		for _, w := range workloads {
			smokeVariant(t, root, sp, w, false)
		}
	})
	if left, _ := filepath.Glob(filepath.Join(root, buildDir, "data-*")); len(left) > 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

func smokeVariant(t *testing.T, root string, sp *spec, workload string, traced bool) {
	name, declared := workload, sp.EndToEnd
	if traced {
		name, declared = workload+"-traced", sp.PerLayer
	}
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		// 3 s: mixed_open needs 200 reads for its p95 at 120 arrivals/s.
		rep, err := run(context.Background(), root, sp, runConfig{
			workload: workload, seed: 11, seconds: 3, traced: traced, scenes: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
		}
		if len(rep.Metrics) != len(declared) {
			t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(declared))
		}
		for _, m := range declared {
			got, ok := rep.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: reported %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
			}
			if !traced && got.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
			}
		}
		if traced {
			for _, f := range []string{"budget-" + workload + ".md", "trace-" + workload + ".json"} {
				if info, err := os.Stat(filepath.Join(root, outDir, f)); err != nil || info.Size() == 0 {
					t.Errorf("traced run left no %s (%v)", f, err)
				}
			}
		}
	})
}
