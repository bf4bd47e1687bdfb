// Package retrieval evaluates ranking quality for the similarity-retrieval
// experiments (E5): it builds seeded ground-truth workloads (a database of
// scenes with planted relevant variants of a query), runs any imagedb
// scorer over them, and reports standard retrieval metrics.
package retrieval

import (
	"context"
	"fmt"
	"sort"

	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/workload"
)

// Metrics summarises one ranked result list against a relevance set.
type Metrics struct {
	PrecisionAtK float64 // fraction of the top k that is relevant
	RecallAtK    float64 // fraction of relevant found in the top k
	MRR          float64 // reciprocal rank of the first relevant result
	AP           float64 // average precision over the full ranking
}

// Evaluate computes metrics for a ranked id list against the relevant set.
// k bounds the precision/recall cutoff (k <= 0 means len(ranked)).
func Evaluate(ranked []string, relevant map[string]bool, k int) Metrics {
	if k <= 0 || k > len(ranked) {
		k = len(ranked)
	}
	var m Metrics
	if len(relevant) == 0 || len(ranked) == 0 {
		return m
	}
	hitsAtK := 0
	for _, id := range ranked[:k] {
		if relevant[id] {
			hitsAtK++
		}
	}
	m.PrecisionAtK = float64(hitsAtK) / float64(k)
	m.RecallAtK = float64(hitsAtK) / float64(len(relevant))

	hits := 0
	sumPrec := 0.0
	for i, id := range ranked {
		if !relevant[id] {
			continue
		}
		hits++
		if hits == 1 {
			m.MRR = 1 / float64(i+1)
		}
		sumPrec += float64(hits) / float64(i+1)
	}
	if hits > 0 {
		m.AP = sumPrec / float64(len(relevant))
	}
	return m
}

// Mean averages a metrics slice field-wise.
func Mean(ms []Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{}
	}
	var sum Metrics
	for _, m := range ms {
		sum.PrecisionAtK += m.PrecisionAtK
		sum.RecallAtK += m.RecallAtK
		sum.MRR += m.MRR
		sum.AP += m.AP
	}
	n := float64(len(ms))
	return Metrics{
		PrecisionAtK: sum.PrecisionAtK / n,
		RecallAtK:    sum.RecallAtK / n,
		MRR:          sum.MRR / n,
		AP:           sum.AP / n,
	}
}

// WorkloadConfig parameterises a planted-relevance benchmark.
type WorkloadConfig struct {
	Seed        int64
	Distractors int // unrelated scenes in the database
	Relevant    int // planted variants of each query's base scene
	Queries     int // number of query rounds
	QueryKeep   int // objects kept in each subset query
	Jitter      int // MBR jitter applied to planted variants
	K           int // ranking cutoff
	Vocabulary  int
	Objects     int
}

// withDefaults fills zero fields with the E5 defaults.
func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Distractors == 0 {
		c.Distractors = 60
	}
	if c.Relevant == 0 {
		c.Relevant = 4
	}
	if c.Queries == 0 {
		c.Queries = 10
	}
	if c.QueryKeep == 0 {
		c.QueryKeep = 4
	}
	if c.K == 0 {
		c.K = c.Relevant
	}
	if c.Vocabulary == 0 {
		c.Vocabulary = 40
	}
	if c.Objects == 0 {
		c.Objects = 8
	}
	return c
}

// Workload is a materialised benchmark: a populated database plus query
// rounds with known relevance.
type Workload struct {
	DB     *imagedb.DB
	Rounds []Round
	Config WorkloadConfig
}

// Round is one query with its ground truth.
type Round struct {
	Query    core.Image
	Relevant map[string]bool
}

// BuildWorkload constructs the benchmark deterministically from the seed.
// For each query round a base scene is generated; Relevant jittered
// variants of it are planted in the database among Distractors unrelated
// scenes; the query is a QueryKeep-object subset of the base scene. The
// planted variants (not the base itself) form the relevance set, so a
// method must generalise over both missing objects and perturbed MBRs.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	gen := workload.NewGenerator(workload.Config{
		Seed:       cfg.Seed,
		Vocabulary: cfg.Vocabulary,
		Objects:    cfg.Objects,
	})
	db := imagedb.New()
	w := &Workload{DB: db, Config: cfg}

	for _, img := range gen.Dataset(cfg.Distractors) {
		id := fmt.Sprintf("distractor%04d", db.Len())
		if err := db.Insert(id, "distractor", img); err != nil {
			return nil, fmt.Errorf("build workload: %w", err)
		}
	}
	for qi := 0; qi < cfg.Queries; qi++ {
		base := gen.Scene()
		relevant := make(map[string]bool, cfg.Relevant)
		for v := 0; v < cfg.Relevant; v++ {
			variant := gen.JitterQuery(base, cfg.Jitter)
			id := fmt.Sprintf("q%02d-variant%02d", qi, v)
			if err := db.Insert(id, "planted", variant); err != nil {
				return nil, fmt.Errorf("build workload: %w", err)
			}
			relevant[id] = true
		}
		w.Rounds = append(w.Rounds, Round{
			Query:    gen.SubsetQuery(base, cfg.QueryKeep),
			Relevant: relevant,
		})
	}
	return w, nil
}

// Run executes every round with the named scorer (one of
// imagedb.ScorerNames) and returns the mean metrics.
func (w *Workload) Run(ctx context.Context, scorer string) (Metrics, error) {
	ms := make([]Metrics, 0, len(w.Rounds))
	for i, round := range w.Rounds {
		page, err := w.DB.Query(ctx, imagedb.NewQuery(round.Query), imagedb.WithScorer(scorer))
		if err != nil {
			return Metrics{}, fmt.Errorf("run round %d: %w", i, err)
		}
		ranked := make([]string, len(page.Hits))
		for j, h := range page.Hits {
			ranked[j] = h.ID
		}
		ms = append(ms, Evaluate(ranked, round.Relevant, w.Config.K))
	}
	return Mean(ms), nil
}

// MethodResult pairs a method name with its mean metrics, for tables.
type MethodResult struct {
	Method string
	Metrics
}

// RunMethods evaluates several scorers on the same workload — methods
// maps each row's method label to a scorer name — and returns rows
// sorted by method label.
func (w *Workload) RunMethods(ctx context.Context, methods map[string]string) ([]MethodResult, error) {
	out := make([]MethodResult, 0, len(methods))
	for name, scorer := range methods {
		m, err := w.Run(ctx, scorer)
		if err != nil {
			return nil, fmt.Errorf("method %s: %w", name, err)
		}
		out = append(out, MethodResult{Method: name, Metrics: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out, nil
}
