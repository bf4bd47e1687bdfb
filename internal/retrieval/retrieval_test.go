package retrieval

import (
	"context"
	"math"
	"testing"
)

func TestEvaluateKnownRanking(t *testing.T) {
	ranked := []string{"a", "b", "c", "d", "e"}
	relevant := map[string]bool{"b": true, "e": true}
	m := Evaluate(ranked, relevant, 2)
	if m.PrecisionAtK != 0.5 {
		t.Errorf("P@2 = %v, want 0.5", m.PrecisionAtK)
	}
	if m.RecallAtK != 0.5 {
		t.Errorf("R@2 = %v, want 0.5", m.RecallAtK)
	}
	if m.MRR != 0.5 {
		t.Errorf("MRR = %v, want 0.5 (first hit at rank 2)", m.MRR)
	}
	// AP = (1/2 + 2/5)/2 = 0.45
	if math.Abs(m.AP-0.45) > 1e-9 {
		t.Errorf("AP = %v, want 0.45", m.AP)
	}
}

func TestEvaluatePerfectRanking(t *testing.T) {
	ranked := []string{"r1", "r2", "x", "y"}
	relevant := map[string]bool{"r1": true, "r2": true}
	m := Evaluate(ranked, relevant, 2)
	if m.PrecisionAtK != 1 || m.RecallAtK != 1 || m.MRR != 1 || m.AP != 1 {
		t.Errorf("perfect ranking metrics = %+v, want all 1", m)
	}
}

func TestEvaluateNoRelevant(t *testing.T) {
	m := Evaluate([]string{"a"}, nil, 1)
	if m != (Metrics{}) {
		t.Errorf("no relevant: %+v, want zeros", m)
	}
	m = Evaluate(nil, map[string]bool{"a": true}, 1)
	if m != (Metrics{}) {
		t.Errorf("empty ranking: %+v, want zeros", m)
	}
}

func TestEvaluateKDefaults(t *testing.T) {
	ranked := []string{"a", "b"}
	relevant := map[string]bool{"a": true}
	if got := Evaluate(ranked, relevant, 0); got.PrecisionAtK != 0.5 {
		t.Errorf("k=0 should use full list: P = %v, want 0.5", got.PrecisionAtK)
	}
	if got := Evaluate(ranked, relevant, 99); got.PrecisionAtK != 0.5 {
		t.Errorf("k>len should clamp: P = %v, want 0.5", got.PrecisionAtK)
	}
}

func TestMean(t *testing.T) {
	ms := []Metrics{
		{PrecisionAtK: 1, RecallAtK: 0, MRR: 1, AP: 0.5},
		{PrecisionAtK: 0, RecallAtK: 1, MRR: 0, AP: 0.5},
	}
	got := Mean(ms)
	want := Metrics{PrecisionAtK: 0.5, RecallAtK: 0.5, MRR: 0.5, AP: 0.5}
	if got != want {
		t.Errorf("Mean = %+v, want %+v", got, want)
	}
	if Mean(nil) != (Metrics{}) {
		t.Error("Mean(nil) should be zeros")
	}
}

func TestBuildWorkloadShape(t *testing.T) {
	w, err := BuildWorkload(WorkloadConfig{Seed: 3, Distractors: 10, Relevant: 2, Queries: 3, QueryKeep: 3})
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	if got := w.DB.Len(); got != 10+3*2 {
		t.Errorf("db size = %d, want 16", got)
	}
	if len(w.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(w.Rounds))
	}
	for i, r := range w.Rounds {
		if len(r.Relevant) != 2 {
			t.Errorf("round %d: relevant = %d, want 2", i, len(r.Relevant))
		}
		if len(r.Query.Objects) != 3 {
			t.Errorf("round %d: query objects = %d, want 3", i, len(r.Query.Objects))
		}
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	cfg := WorkloadConfig{Seed: 9, Distractors: 8, Relevant: 2, Queries: 2}
	w1, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := w1.Run(context.Background(), "be")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := w2.Run(context.Background(), "be")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("same seed produced different metrics: %+v vs %+v", m1, m2)
	}
}

func TestBEScorerFindsPlantedVariants(t *testing.T) {
	// With exact planted copies (no jitter) and full queries, the BE
	// scorer must achieve perfect MRR.
	w, err := BuildWorkload(WorkloadConfig{
		Seed: 7, Distractors: 30, Relevant: 3, Queries: 5, QueryKeep: 8, Jitter: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Run(context.Background(), "be")
	if err != nil {
		t.Fatal(err)
	}
	if m.MRR != 1 {
		t.Errorf("MRR = %v, want 1 for exact planted copies", m.MRR)
	}
	if m.PrecisionAtK < 0.99 {
		t.Errorf("P@k = %v, want ~1", m.PrecisionAtK)
	}
}

func TestPartialQueriesStillRank(t *testing.T) {
	// The paper's headline scenario: subset queries with jittered variants.
	// BE-LCS must still place relevant images well above random. Random
	// MRR over ~42 images would be ~0.1.
	w, err := BuildWorkload(WorkloadConfig{
		Seed: 21, Distractors: 30, Relevant: 3, Queries: 6, QueryKeep: 4, Jitter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Run(context.Background(), "be")
	if err != nil {
		t.Fatal(err)
	}
	if m.MRR < 0.5 {
		t.Errorf("MRR = %v, want >= 0.5 (partial queries must still retrieve)", m.MRR)
	}
}

func TestRunMethodsProducesAllRows(t *testing.T) {
	w, err := BuildWorkload(WorkloadConfig{Seed: 2, Distractors: 8, Relevant: 2, Queries: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.RunMethods(context.Background(), map[string]string{
		"be-lcs": "be",
		"type-0": "type0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Method != "be-lcs" || rows[1].Method != "type-0" {
		t.Errorf("rows = %+v", rows)
	}
}

func TestRunCancelled(t *testing.T) {
	w, err := BuildWorkload(WorkloadConfig{Seed: 2, Distractors: 5, Relevant: 1, Queries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Run(ctx, "be"); err == nil {
		t.Error("cancelled run should fail")
	}
}
