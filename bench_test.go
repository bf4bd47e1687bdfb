// Benchmarks regenerating the paper's evaluation, one per experiment of
// DESIGN.md (E1-E8), plus the search-engine scaling experiment (E9,
// BenchmarkSearch). cmd/benchtab prints the same data as tables; these
// benches give the raw ns/op under `go test -bench=. -benchmem`.
package bestring_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bestring/internal/baseline/bstring"
	"bestring/internal/baseline/cstring"
	"bestring/internal/baseline/gstring"
	"bestring/internal/baseline/twodstring"
	"bestring/internal/baseline/typesim"
	"bestring/internal/bench"
	"bestring/internal/clique"
	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/lcs"
	"bestring/internal/query"
	"bestring/internal/retrieval"
	"bestring/internal/rtree"
	"bestring/internal/similarity"
	"bestring/internal/wal"
	"bestring/internal/workload"
)

// sink defeats dead-code elimination across all benches.
var sink int

func scene(seed int64, n int) core.Image {
	gen := workload.NewGenerator(workload.Config{
		Seed: seed, Width: 6 * n, Height: 6 * n, Vocabulary: n, Objects: n,
	})
	return gen.Scene()
}

// BenchmarkE1Figure1 is experiment E1: converting the paper's Figure 1
// example image.
func BenchmarkE1Figure1(b *testing.B) {
	img := core.Figure1Image()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		be, err := core.Convert(img)
		if err != nil {
			b.Fatal(err)
		}
		sink += be.StorageUnits()
	}
}

// BenchmarkE2Storage is experiment E2: representation build cost and size
// for every member of the 2-D string family (storage units are reported as
// a custom metric).
func BenchmarkE2Storage(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		img := scene(bench.DefaultSeed, n)
		b.Run(fmt.Sprintf("model=be/n=%d", n), func(b *testing.B) {
			units := 0
			for i := 0; i < b.N; i++ {
				s, err := core.Convert(img)
				if err != nil {
					b.Fatal(err)
				}
				units = s.StorageUnits()
				sink += units
			}
			b.ReportMetric(float64(units), "units")
		})
		b.Run(fmt.Sprintf("model=bstring/n=%d", n), func(b *testing.B) {
			units := 0
			for i := 0; i < b.N; i++ {
				s, err := bstring.Build(img)
				if err != nil {
					b.Fatal(err)
				}
				units = s.StorageUnits()
				sink += units
			}
			b.ReportMetric(float64(units), "units")
		})
		b.Run(fmt.Sprintf("model=cstring/n=%d", n), func(b *testing.B) {
			units := 0
			for i := 0; i < b.N; i++ {
				s, err := cstring.Build(img)
				if err != nil {
					b.Fatal(err)
				}
				units = s.StorageUnits()
				sink += units
			}
			b.ReportMetric(float64(units), "units")
		})
		b.Run(fmt.Sprintf("model=gstring/n=%d", n), func(b *testing.B) {
			units := 0
			for i := 0; i < b.N; i++ {
				s, err := gstring.Build(img)
				if err != nil {
					b.Fatal(err)
				}
				units = s.StorageUnits()
				sink += units
			}
			b.ReportMetric(float64(units), "units")
		})
		b.Run(fmt.Sprintf("model=twodstring/n=%d", n), func(b *testing.B) {
			units := 0
			for i := 0; i < b.N; i++ {
				s, err := twodstring.Build(img)
				if err != nil {
					b.Fatal(err)
				}
				units = s.StorageUnits()
				sink += units
			}
			b.ReportMetric(float64(units), "units")
		})
	}
}

// BenchmarkE3Convert is experiment E3: Convert-2D-Be-String over an
// object-count sweep (O(n log n) including the sort).
func BenchmarkE3Convert(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		img := scene(bench.DefaultSeed, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				be, err := core.Convert(img)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(be.X)
			}
		})
	}
}

// BenchmarkE4LCS is experiment E4: 2D-Be-LCS-Length over the (m, n) grid
// (O(mn) time, rolling-row O(min) space).
func BenchmarkE4LCS(b *testing.B) {
	for _, m := range []int{4, 16, 64} {
		for _, n := range []int{4, 16, 64, 256} {
			q := core.MustConvert(scene(bench.DefaultSeed+1, m))
			d := core.MustConvert(scene(bench.DefaultSeed+2, n))
			b.Run(fmt.Sprintf("m=%d/n=%d", m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink += lcs.Length(q.X, d.X) + lcs.Length(q.Y, d.Y)
				}
			})
		}
	}
}

// BenchmarkE4LCSFullTable measures the table-building variant used when
// the matched subsequence must be reconstructed (Algorithm 2 + 3).
func BenchmarkE4LCSFullTable(b *testing.B) {
	q := core.MustConvert(scene(bench.DefaultSeed+1, 32))
	d := core.MustConvert(scene(bench.DefaultSeed+2, 32))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := lcs.NewTable(q.X, d.X)
		sink += len(t.Reconstruct())
	}
}

// BenchmarkE5Retrieval is experiment E5: one full ranked search over the
// medium-difficulty workload, per scoring method.
func BenchmarkE5Retrieval(b *testing.B) {
	w, err := retrieval.BuildWorkload(retrieval.WorkloadConfig{
		Seed: bench.DefaultSeed, QueryKeep: 4, Jitter: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	methods := []struct{ name, scorer string }{
		{"be-lcs", "be"},
		{"be-lcs-invariant", "invariant"},
		{"type-0", "type0"},
		{"type-2", "type2"},
	}
	for _, m := range methods {
		b.Run("method="+m.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				round := w.Rounds[i%len(w.Rounds)]
				page, err := w.DB.Query(ctx, imagedb.NewQuery(round.Query), imagedb.WithScorer(m.scorer))
				if err != nil {
					b.Fatal(err)
				}
				sink += len(page.Hits)
			}
		})
	}
}

// BenchmarkE6Transform is experiment E6: answering a transformed query on
// the strings versus reconverting the transformed image.
func BenchmarkE6Transform(b *testing.B) {
	img := scene(bench.DefaultSeed, 64)
	be := core.MustConvert(img)
	for _, tr := range core.AllTransforms {
		b.Run("strings/"+tr.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += be.Apply(tr).StorageUnits()
			}
		})
		b.Run("rebuild/"+tr.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += core.MustConvert(core.ApplyToImage(img, tr)).StorageUnits()
			}
		})
	}
}

// BenchmarkE7MatchCost is experiment E7: similarity-judgement cost,
// BE-LCS versus the pair-examination + clique baseline.
func BenchmarkE7MatchCost(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		gen := workload.NewGenerator(workload.Config{
			Seed: bench.DefaultSeed + 3, Width: 6 * n, Height: 6 * n, Vocabulary: n, Objects: n,
		})
		base := gen.Scene()
		query := gen.JitterQuery(base, 2)
		qbe := core.MustConvert(query)
		dbe := core.MustConvert(base)
		b.Run(fmt.Sprintf("lcs/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += similarity.Evaluate(qbe, dbe).LX
			}
		})
		b.Run(fmt.Sprintf("type0/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += typesim.Similarity(query, base, typesim.Type0).Score()
			}
		})
		b.Run(fmt.Sprintf("type2/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += typesim.Similarity(query, base, typesim.Type2).Score()
			}
		})
	}
}

// BenchmarkE7bCliqueBlowup times the maximum-clique solver on Moon-Moser
// graphs — the exponential worst case the type-i assessment inherits and
// the BE-LCS matching avoids.
func BenchmarkE7bCliqueBlowup(b *testing.B) {
	for _, k := range []int{5, 7, 9, 11} {
		n := 3 * k
		g := clique.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u/3 != v/3 {
					if err := g.AddEdge(u, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.Run(fmt.Sprintf("moonmoser/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += g.MaxCliqueSize()
			}
		})
	}
}

// BenchmarkE8Incremental is experiment E8: incremental insert/delete on
// the indexed BE-string versus full reconversion.
func BenchmarkE8Incremental(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		gen := workload.NewGenerator(workload.Config{
			Seed: bench.DefaultSeed, Width: 8 * n, Height: 8 * n, Vocabulary: n + 1, Objects: n,
		})
		img := gen.Scene()
		extra := core.Object{Label: "extra", Box: core.NewRect(0, 0, 3, 3)}
		b.Run(fmt.Sprintf("insert+delete/n=%d", n), func(b *testing.B) {
			ix, err := core.NewIndexed(img)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Insert(extra); err != nil {
					b.Fatal(err)
				}
				if err := ix.Delete(extra.Label); err != nil {
					b.Fatal(err)
				}
				sink++
			}
		})
		grown := img.WithObject(extra)
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += core.MustConvert(grown).StorageUnits()
			}
		})
	}
}

// BenchmarkSearch is experiment E9: ranked retrieval over a corpus-size
// sweep, comparing the full-sort path (K=0: score all, sort all — what the
// engine did before per-worker bounded heaps) against the top-K heap path.
// Both return byte-identical top-10 rankings (TestSearchMatchesFullSort-
// Reference in internal/imagedb); the heap path allocates O(workers*K)
// instead of O(n) per query. 100k images is skipped under -short.
func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		if testing.Short() && n > 1000 {
			continue
		}
		gen := workload.NewGenerator(workload.Config{Seed: 23, Vocabulary: 32, Objects: 8})
		scenes := gen.Dataset(n)
		items := make([]imagedb.BulkItem, n)
		for i, s := range scenes {
			items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
		}
		db := imagedb.New()
		ctx := context.Background()
		if err := db.BulkInsert(ctx, items, 0); err != nil {
			b.Fatal(err)
		}
		query := imagedb.NewQuery(gen.SubsetQuery(scenes[n/2], 4))
		b.Run(fmt.Sprintf("images=%d/engine=fullsort", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				page, err := db.Query(ctx, query)
				if err != nil {
					b.Fatal(err)
				}
				sink += min(len(page.Hits), 10)
			}
		})
		b.Run(fmt.Sprintf("images=%d/engine=topk", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				page, err := db.Query(ctx, query, imagedb.WithK(10))
				if err != nil {
					b.Fatal(err)
				}
				sink += len(page.Hits)
			}
		})
	}
}

// BenchmarkBulkInsert measures the parallel-conversion insert fast path
// against one-at-a-time Insert calls.
func BenchmarkBulkInsert(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 29, Vocabulary: 32, Objects: 8})
	scenes := gen.Dataset(2000)
	items := make([]imagedb.BulkItem, len(scenes))
	for i, s := range scenes {
		items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
	}
	ctx := context.Background()
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := imagedb.New()
			if err := db.BulkInsert(ctx, items, 0); err != nil {
				b.Fatal(err)
			}
			sink += db.Len()
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := imagedb.New()
			for _, it := range items {
				if err := db.Insert(it.ID, it.Name, it.Image); err != nil {
					b.Fatal(err)
				}
			}
			sink += db.Len()
		}
	})
}

// BenchmarkRTree measures the spatial-index substrate: insertion and
// window search over the icon MBRs of many stored scenes.
func BenchmarkRTree(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 13, Vocabulary: 64, Objects: 8})
	scenes := gen.Dataset(500)
	b.Run("insert-4000-icons", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New(rtree.DefaultMaxEntries)
			for si, s := range scenes {
				for _, o := range s.Objects {
					tr.Insert(fmt.Sprintf("%d/%s", si, o.Label), o.Box)
				}
			}
			sink += tr.Len()
		}
	})
	tr := rtree.New(rtree.DefaultMaxEntries)
	for si, s := range scenes {
		for _, o := range s.Objects {
			tr.Insert(fmt.Sprintf("%d/%s", si, o.Label), o.Box)
		}
	}
	b.Run("window-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(tr.SearchIntersect(core.NewRect(20, 20, 45, 45)))
		}
	})
}

// BenchmarkLabelPrefilter measures the inverted-index prefilter ablation:
// full scan vs label-pruned scan on a collection with a wide vocabulary.
func BenchmarkLabelPrefilter(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 17, Vocabulary: 200, Objects: 6})
	db := imagedb.New()
	for i := 0; i < 400; i++ {
		if err := db.Insert(fmt.Sprintf("img%04d", i), "", gen.Scene()); err != nil {
			b.Fatal(err)
		}
	}
	query := imagedb.NewQuery(gen.SubsetQuery(gen.Scene(), 3))
	ctx := context.Background()
	for _, pre := range []bool{false, true} {
		b.Run(fmt.Sprintf("prefilter=%v", pre), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				page, err := db.Query(ctx, query, imagedb.WithK(10), imagedb.WithLabelPrefilter(pre))
				if err != nil {
					b.Fatal(err)
				}
				sink += len(page.Hits)
			}
		})
	}
}

// BenchmarkSearchDSL measures spatial-predicate query evaluation.
func BenchmarkSearchDSL(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 19, Vocabulary: 12, Objects: 8})
	db := imagedb.New()
	for i := 0; i < 300; i++ {
		if err := db.Insert(fmt.Sprintf("img%04d", i), "", gen.Scene()); err != nil {
			b.Fatal(err)
		}
	}
	q, err := query.Parse("icon00 left-of icon01; icon02 above icon03")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	match := imagedb.NewMatchQuery()
	for i := 0; i < b.N; i++ {
		page, err := db.Query(ctx, match, imagedb.WhereQuery(q), imagedb.WithK(10))
		if err != nil {
			b.Fatal(err)
		}
		sink += len(page.Hits)
	}
}

// BenchmarkSearchParallelism measures the worker-pool scaling of database
// search (ablation: DESIGN.md section 4.6).
func BenchmarkSearchParallelism(b *testing.B) {
	gen := workload.NewGenerator(workload.Config{Seed: 5, Vocabulary: 32})
	db := imagedb.New()
	for i := 0; i < 200; i++ {
		if err := db.Insert(fmt.Sprintf("img%03d", i), "", gen.Scene()); err != nil {
			b.Fatal(err)
		}
	}
	query := imagedb.NewQuery(gen.Scene())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				page, err := db.Query(ctx, query, imagedb.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				sink += len(page.Hits)
			}
		})
	}
}

// BenchmarkQueryPipeline is experiment E10: the composable query
// pipeline's staged narrowing (Where / region filters ahead of ranked
// scoring) against the unfiltered ranked path, at three selectivities.
// The corpus plants a "tagS left-of anchorS" pair in S% of images and a
// "probe" icon in 10% of them.
func BenchmarkQueryPipeline(b *testing.B) {
	const n = 10000
	sizes := n
	if testing.Short() {
		sizes = 1000
	}
	gen := workload.NewGenerator(workload.Config{Seed: 29, Vocabulary: 32, Objects: 8})
	scenes := gen.Dataset(sizes)
	items := make([]imagedb.BulkItem, sizes)
	for i, s := range scenes {
		for _, sel := range []int{1, 10, 100} {
			if i%(100/sel) == 0 {
				s = s.WithObject(core.Object{Label: fmt.Sprintf("tag%d", sel), Box: core.NewRect(0, 0, 1, 1)}).
					WithObject(core.Object{Label: fmt.Sprintf("anchor%d", sel), Box: core.NewRect(3, 0, 4, 1)})
			}
		}
		if i%10 == 0 {
			s = s.WithObject(core.Object{Label: "probe", Box: core.NewRect(60, 60, 62, 62)})
		}
		items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
	}
	db := imagedb.New()
	ctx := context.Background()
	if err := db.BulkInsert(ctx, items, 0); err != nil {
		b.Fatal(err)
	}
	q := imagedb.NewQuery(gen.SubsetQuery(scenes[sizes/2], 4))

	run := func(name string, opts ...imagedb.QueryOption) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				page, err := db.Query(ctx, q, opts...)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(page.Hits)
			}
		})
	}
	run("filter=none", imagedb.WithK(10))
	run("filter=where-1pct", imagedb.WithK(10), imagedb.Where("tag1 left-of anchor1"))
	run("filter=where-10pct", imagedb.WithK(10), imagedb.Where("tag10 left-of anchor10"))
	run("filter=where-100pct", imagedb.WithK(10), imagedb.Where("tag100 left-of anchor100"))
	run("filter=region-10pct", imagedb.WithK(10), imagedb.InRegionLabel(core.NewRect(59, 59, 63, 63), "probe"))
	run("filter=where+region", imagedb.WithK(10),
		imagedb.Where("tag10 left-of anchor10"),
		imagedb.InRegionLabel(core.NewRect(59, 59, 63, 63), "probe"))
}

// BenchmarkWALAppend is the microbench behind experiment E11: framing and
// appending one insert record to the write-ahead log under each fsync
// policy. fsync=always is the per-acknowledgement durability price;
// fsync=never isolates the encode+write cost. cmd/benchtab -exp e11
// reports the same trade at the store level (with batching).
func BenchmarkWALAppend(b *testing.B) {
	img := scene(bench.DefaultSeed, 8)
	for _, policy := range []wal.Policy{wal.SyncNever, wal.SyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			log, err := wal.Open(b.TempDir(), 1, wal.Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			rec := wal.Record{Op: wal.OpInsert, ID: "img000001", Image: &img}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lsn, _, err := log.Append(rec)
				if err != nil {
					b.Fatal(err)
				}
				sink += int(lsn)
			}
		})
	}
}

// BenchmarkSnapshotSearch is the microbench behind experiment E12:
// parallel ranked top-10 queries against the MVCC engine, with and
// without concurrent writer churn. Readers pin an immutable snapshot per
// query and acquire no locks, so the writers=4 numbers should track the
// writers=0 baseline; cmd/benchtab -exp e12 reports the same trade as
// throughput over a fixed window.
func BenchmarkSnapshotSearch(b *testing.B) {
	const n = 10000
	gen := workload.NewGenerator(workload.Config{Seed: 41, Vocabulary: 32, Objects: 8})
	scenes := gen.Dataset(n)
	items := make([]imagedb.BulkItem, n)
	for i, s := range scenes {
		items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
	}
	db := imagedb.New()
	ctx := context.Background()
	if err := db.BulkInsert(ctx, items, 0); err != nil {
		b.Fatal(err)
	}
	query := gen.SubsetQuery(scenes[n/2], 4)
	churn := gen.Scene()
	for _, writers := range []int{0, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := fmt.Sprintf("churn-%d-%d", w, i)
						if err := db.Insert(id, "", churn); err != nil {
							return
						}
						_ = db.Delete(id)
					}
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					page, err := db.Query(ctx, imagedb.NewQuery(query), imagedb.WithK(10))
					if err != nil {
						b.Fatal(err)
					}
					if len(page.Hits) == 0 {
						b.Fatal("no hits")
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
