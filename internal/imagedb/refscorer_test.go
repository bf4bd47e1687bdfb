package imagedb

import (
	"context"
	"math"
	"testing"

	"bestring/internal/baseline/typesim"
	"bestring/internal/core"
	"bestring/internal/similarity"
)

// refScorer grades an entry by value, from the query image, its
// BE-string and the entry's stored tokens: the token-level reference
// the engine's kernels must equal bit for bit.
type refScorer func(query core.Image, queryBE core.BEString, e Entry) float64

// referenceScorers holds the reference of every named scorer, built from
// the token-level similarity and typesim functions.
var referenceScorers = map[string]refScorer{
	"be": func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.Evaluate(queryBE, e.BE).Key()
	},
	"invariant": func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.EvaluateInvariant(queryBE, e.BE, nil).Key()
	},
	"symbols": func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.EvaluateSymbolsOnly(queryBE, e.BE).Key()
	},
	"type0": typeReference(typesim.Type0),
	"type1": typeReference(typesim.Type1),
	"type2": typeReference(typesim.Type2),
}

func typeReference(level typesim.Level) refScorer {
	return func(query core.Image, _ core.BEString, e Entry) float64 {
		return typesim.NormalizedScore(typesim.Similarity(query, e.Image, level), query)
	}
}

// referenceScorer returns the reference of the named scorer ("" is the
// default).
func referenceScorer(name string) refScorer {
	if name == "" {
		name = DefaultScorerName
	}
	return referenceScorers[name]
}

// withKernelWrap wraps the query's scorer kernel: the seam through
// which a test counts kernel calls or cancels mid-rank.
func withKernelWrap(wrap func(scoreKernel) scoreKernel) QueryOption {
	return func(q *Query) { q.wrapKernel = wrap }
}

// TestKernelsMatchTokenReference checks every named scorer's kernel
// against its token-level reference on pairs of the load harness's
// corpus shape: with no K and no MinScore, every candidate is scored in
// full, and every hit's score must equal the reference bit for bit.
func TestKernelsMatchTokenReference(t *testing.T) {
	ctx := context.Background()
	db, gen, corpus := harnessCorpus(t, 150)
	queries := []core.Image{corpus[3], gen.SubsetQuery(corpus[40], 3), gen.JitterQuery(gen.SubsetQuery(corpus[77], 5), 4)}
	for _, name := range ScorerNames() {
		ref := referenceScorer(name)
		for qi, img := range queries {
			qbe := core.MustConvert(img)
			page, err := db.Query(ctx, NewQuery(img), WithScorer(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Hits) != len(corpus) || page.Stages.Evaluated != len(corpus) {
				t.Fatalf("%s query %d: %d hits, %d evaluated, want all %d", name, qi, len(page.Hits), page.Stages.Evaluated, len(corpus))
			}
			for _, h := range page.Hits {
				e, _ := db.Get(h.ID)
				if want := ref(img, qbe, e); math.Float64bits(h.Score) != math.Float64bits(want) {
					t.Fatalf("%s query %d entry %s: kernel %v, token reference %v", name, qi, h.ID, h.Score, want)
				}
			}
		}
	}
}
