package imagedb

import (
	"context"
	"fmt"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

// tiedBoundScenes generates a corpus built to put many candidates on
// one bound and one score: small scenes over three labels on a 6×6
// canvas, so most share a signature shape, and every fourth scene an
// exact copy of an earlier one under another id, so whole groups tie on
// the exact score as well and only the id orders them. The test's n
// spans several rank chunks, so parallel workers split bound runs
// between them.
func tiedBoundScenes(n int) []core.Image {
	g := workload.NewGenerator(workload.Config{Seed: 4601, Vocabulary: 3, Width: 6, Height: 6, Objects: 3, MaxExtent: 2})
	scenes := make([]core.Image, n)
	for i := range scenes {
		if i%4 == 3 {
			scenes[i] = scenes[i/2]
			continue
		}
		scenes[i] = g.Scene()
	}
	return scenes
}

// TestBoundOrderedRankingByteIdentical pins the two-pass ranker — the
// bound pass, the refine in descending bound order with its early stop,
// and the staged X-then-Y refine — against the naive full-sort
// reference, on a corpus where bounds and scores tie in bulk: Hits,
// Total and NextCursor byte for byte, at parallelism 1 to 4, for the
// three bounded scorers and one that declares no bound, with MinScore
// totals, an offset past the candidate count and whole cursor walks.
// The stage counts keep their accounting: Bounded = Evaluated + Pruned
// for a bounded scorer, with the half-refined candidates among the
// Evaluated; everything evaluated and nothing bounded otherwise.
func TestBoundOrderedRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	const n = 2*rankChunk + 41
	scenes := tiedBoundScenes(n)
	db, _ := loadRankDB(t, scenes)
	queries := []core.Image{scenes[5], scenes[n/2]}
	g := workload.NewGenerator(workload.Config{Seed: 77, Vocabulary: 3, Width: 6, Height: 6, Objects: 3, MaxExtent: 2})
	queries = append(queries, g.SubsetQuery(scenes[9], 2))

	scorers := []struct {
		name    string
		bounded bool
	}{
		{"be", true},
		{"invariant", true},
		{"symbols", true},
		{"type0", false},
	}
	halfRefined, pruned := 0, 0
	for qi, img := range queries {
		for _, sc := range scorers {
			cases := []struct {
				name string
				opts []QueryOption
				spec composedSpec
			}{
				{"k=1", []QueryOption{WithK(1)}, composedSpec{k: 1}},
				{"k=10", []QueryOption{WithK(10)}, composedSpec{k: 10}},
				{"min-score", []QueryOption{WithK(10), WithMinScore(0.5)}, composedSpec{k: 10, minScore: 0.5}},
				{"min-score unbounded", []QueryOption{WithMinScore(0.7)}, composedSpec{minScore: 0.7}},
				{"offset past narrowed", []QueryOption{WithK(40), WithOffset(n - 15)}, composedSpec{k: 40, offset: n - 15}},
			}
			for _, c := range cases {
				spec := c.spec
				spec.image, spec.whereMin, spec.scorer = &img, -1, sc.name
				for par := 1; par <= 4; par++ {
					label := fmt.Sprintf("query %d %s %s parallelism=%d", qi, sc.name, c.name, par)
					page, err := db.Query(ctx, NewQuery(img), append([]QueryOption{WithScorer(sc.name), WithParallelism(par)}, c.opts...)...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertReference(t, label, db, page, spec)
					st := page.Stages
					switch {
					case !sc.bounded && (st.Bounded != 0 || st.Pruned != 0 || st.HalfRefined != 0 || st.Evaluated != n):
						t.Fatalf("%s: stage counts %+v, want all %d evaluated and nothing bounded", label, st, n)
					case sc.bounded && (st.Bounded != n || st.Evaluated+st.Pruned != n || st.HalfRefined > st.Evaluated):
						t.Fatalf("%s: stage counts %+v, want Bounded = %d = Evaluated + Pruned >= HalfRefined", label, st, n)
					}
					halfRefined += st.HalfRefined
					pruned += st.Pruned
				}
			}
			for _, par := range []int{1, 3} {
				spec := composedSpec{image: &img, whereMin: -1, scorer: sc.name, k: 11}
				label := fmt.Sprintf("query %d %s walk parallelism=%d", qi, sc.name, par)
				assertWalkMatchesReference(t, label, db, spec, func(cursor string) *Page {
					page, err := db.Query(ctx, NewQuery(img), WithScorer(sc.name), WithParallelism(par), WithK(11), WithCursor(cursor))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return page
				})
			}
		}
	}
	if halfRefined == 0 || pruned == 0 {
		t.Fatalf("%d candidates half-refined, %d pruned: the staged refine or the early stop went untested", halfRefined, pruned)
	}
}
