package imagedb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bestring/internal/core"
	"bestring/internal/query"
	"bestring/internal/workload"
)

// harnessCorpus bulk-loads the load harness's corpus recipe
// (benchmark/corpus.go): n 8-object scenes on a 100×100 canvas,
// vocabulary 64, ids s0000000….
func harnessCorpus(b *testing.B, n int) (*DB, *workload.Generator, []core.Image) {
	b.Helper()
	gen := workload.NewGenerator(workload.Config{Seed: 1, Width: 100, Height: 100, Objects: 8, Vocabulary: 64})
	corpus := gen.Dataset(n)
	items := make([]BulkItem, n)
	for i, img := range corpus {
		items[i] = BulkItem{ID: fmt.Sprintf("s%07d", i), Image: img}
	}
	db := New()
	if err := db.BulkInsert(context.Background(), items, 0); err != nil {
		b.Fatal(err)
	}
	return db, gen, corpus
}

// BenchmarkRankedScan20k is the in-process twin of the harness's
// ranked_scan workload (benchmark/README.md): an unfiltered top-10 over
// 20 000 bulk-loaded 8-object scenes (vocabulary 64) from two concurrent
// callers, every query a distinct 5-of-8 subset of a corpus scene with
// ±3 jitter. The query ring is longer than the 300 iterations the
// recorded runs use, so — as on the harness — every query is the first
// sighting of its key and bypasses the scorer cache (before the
// doorkeeper: long enough that a query's scores were evicted before it
// came round again). Beside ns/op and allocs/op it reports the exact
// evaluations per query that ran both LCS axes (full/query) and those
// that stopped after the X axis (half/query). EXPERIMENTS.md E19 and E20
// record parent vs change.
func BenchmarkRankedScan20k(b *testing.B) {
	const scenes, queries, callers = 20000, 1024, 2
	db, gen, corpus := harnessCorpus(b, scenes)
	qs := make([]core.Image, queries)
	for i := range qs {
		qs[i] = gen.JitterQuery(gen.SubsetQuery(corpus[(i*19)%scenes], 5), 3)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next, full, half atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				page, err := db.Query(context.Background(), NewQuery(qs[i%queries]), WithK(10))
				if err != nil || len(page.Hits) != 10 {
					b.Errorf("query %d: %d hits, err %v", i, len(page.Hits), err)
					return
				}
				full.Add(int64(page.Stages.Evaluated - page.Stages.HalfRefined))
				half.Add(int64(page.Stages.HalfRefined))
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(full.Load())/float64(b.N), "full/query")
	b.ReportMetric(float64(half.Load())/float64(b.N), "half/query")
}

// BenchmarkFilteredMix20k is the in-process twin of the harness's
// filtered_mix searches (benchmark/corpus.go): the same corpus recipe as
// BenchmarkRankedScan20k and the workload's four search kinds — a ranked
// query with a one-clause Where, a ranked query in a labelled 12×12
// region, a match-only two-clause Where, a 2-object ranked query with
// LabelPrefilter — each as its own sub-benchmark and as "mix" in the
// workload's 30/25/15/10 shares. Every clause holds on the query's
// source scene. Each reports the mean stage times and narrowed set per
// query beside ns/op and allocs/op. EXPERIMENTS.md E23 records parent vs
// change.
func BenchmarkFilteredMix20k(b *testing.B) {
	const scenes, ring, side = 20000, 256, 12
	db, gen, corpus := harnessCorpus(b, scenes)

	rng := rand.New(rand.NewSource(2))
	clause := func(a, c core.Object) string {
		for _, op := range []query.Op{query.LeftOf, query.RightOf, query.Above, query.Below, query.Overlaps, query.Disjoint} {
			if query.Holds(op, a.Box, c.Box) {
				return fmt.Sprintf("%s %s %s", a.Label, op, c.Label)
			}
		}
		panic("unreachable: two boxes overlap or are disjoint")
	}
	type search struct {
		q    *Query
		opts []QueryOption
	}
	kinds := []string{"ranked+dsl", "ranked+region", "match-dsl", "prefilter"}
	shares := []int{30, 25, 15, 10}
	rings := make([][]search, len(kinds))
	for i := 0; i < ring; i++ {
		scene := corpus[rng.Intn(scenes)]
		p := rng.Perm(len(scene.Objects))
		o1, o2, o3 := scene.Objects[p[0]], scene.Objects[p[1]], scene.Objects[p[2]]
		partial := func(keep int) *Query { return NewQuery(gen.JitterQuery(gen.SubsetQuery(scene, keep), 3)) }
		ctr := o1.Box.Center()
		x0, y0 := min(max(ctr.X-side/2, 0), 100-side), min(max(ctr.Y-side/2, 0), 100-side)
		for k, s := range []search{
			{partial(5), []QueryOption{Where(clause(o1, o2))}},
			{partial(5), []QueryOption{InRegionLabel(core.NewRect(x0, y0, x0+side, y0+side), o1.Label)}},
			{NewMatchQuery(), []QueryOption{Where(clause(o1, o2) + "; " + clause(o2, o3))}},
			{partial(2), []QueryOption{WithLabelPrefilter(true)}},
		} {
			rings[k] = append(rings[k], search{s.q, append(s.opts, WithK(10))})
		}
	}

	run := func(b *testing.B, pick func(i int) search) {
		b.ReportAllocs()
		var index, filter, rank, narrowed int64
		for i := 0; i < b.N; i++ {
			s := pick(i)
			page, err := db.Query(context.Background(), s.q, s.opts...)
			if err != nil || len(page.Hits) == 0 {
				b.Fatalf("query %d: %d hits, err %v", i, len(page.Hits), err)
			}
			st := page.Stages
			index += st.IndexNanos + st.RegionNanos
			filter += st.FilterNanos
			rank += st.RankNanos
			narrowed += int64(st.Narrowed)
		}
		n := float64(b.N)
		b.ReportMetric(float64(index)/n/1e3, "index_us")
		b.ReportMetric(float64(filter)/n/1e3, "filter_us")
		b.ReportMetric(float64(rank)/n/1e3, "rank_us")
		b.ReportMetric(float64(narrowed)/n, "narrowed")
	}
	for k, name := range kinds {
		b.Run(name, func(b *testing.B) { run(b, func(i int) search { return rings[k][i%ring] }) })
	}
	b.Run("mix", func(b *testing.B) {
		draw := rand.New(rand.NewSource(3))
		run(b, func(i int) search {
			u := draw.Intn(80)
			for k, share := range shares {
				if u < share {
					return rings[k][i%ring]
				}
				u -= share
			}
			panic("unreachable: the shares sum to 80")
		})
	})
}
