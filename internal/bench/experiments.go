package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bestring/internal/baseline/bstring"
	"bestring/internal/baseline/cstring"
	"bestring/internal/baseline/gstring"
	"bestring/internal/baseline/twodstring"
	"bestring/internal/baseline/typesim"
	"bestring/internal/clique"
	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/lcs"
	"bestring/internal/retrieval"
	"bestring/internal/similarity"
	"bestring/internal/workload"
)

// Sink receives computation results so the compiler cannot elide the work
// being measured.
var Sink int

// DefaultSeed keeps every experiment deterministic.
const DefaultSeed = 20010407 // ICDCS 2001, April

// defaultMeasure is the per-point measuring budget.
const defaultMeasure = 20 * time.Millisecond

// Figure1 reproduces experiment E1: the worked example of the paper's
// Figure 1 — the three-object image and its exact 2D BE-string.
func Figure1() *Table {
	img := core.Figure1Image()
	got := core.MustConvert(img)
	want := core.Figure1BEString()
	t := &Table{
		ID:      "E1",
		Caption: "Figure 1 worked example: 3-object image -> 2D BE-string",
		Header:  []string{"item", "value"},
	}
	for _, o := range img.Objects {
		t.AddRow("object "+o.Label, o.Box.String())
	}
	t.AddRow("x-axis (computed)", got.X.String())
	t.AddRow("x-axis (paper)", want.X.String())
	t.AddRow("y-axis (computed)", got.Y.String())
	t.AddRow("y-axis (paper)", want.Y.String())
	t.AddRow("exact match", fmt.Sprintf("%v", got.Equal(want)))
	t.AddRow("storage units", fmt.Sprintf("%d (bounds: 2n=%d .. 4n+1=%d per axis)",
		got.StorageUnits(), 2*3, 4*3+1))
	return t
}

// Storage reproduces experiment E2: storage units per image for the 2D
// BE-string against every family member, over an object-count sweep at two
// densities (sparse scenes cut little; dense scenes cut a lot).
func Storage(ns []int, scenesPerPoint int) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Caption: "storage units/image (mean): BE-string O(n) vs family; G/C-string grow superlinearly with overlap",
		Header:  []string{"n", "density", "2D-BE", "2D-B", "2D-C", "2D-G", "2-D", "BE-min(4n)", "BE-max(8n+2)"},
	}
	for _, n := range ns {
		for _, density := range []string{"sparse", "dense"} {
			maxExtent := 8
			canvas := judgeCanvas(n, density)
			if density == "dense" {
				maxExtent = canvas / 2
			}
			gen := workload.NewGenerator(workload.Config{
				Seed: DefaultSeed, Width: canvas, Height: canvas,
				Vocabulary: n, Objects: n, MaxExtent: maxExtent,
			})
			var be, b, c, g, two float64
			for s := 0; s < scenesPerPoint; s++ {
				img := gen.Scene()
				beStr, err := core.Convert(img)
				if err != nil {
					return nil, fmt.Errorf("E2: %w", err)
				}
				bStr, err := bstring.Build(img)
				if err != nil {
					return nil, fmt.Errorf("E2: %w", err)
				}
				cStr, err := cstring.Build(img)
				if err != nil {
					return nil, fmt.Errorf("E2: %w", err)
				}
				gStr, err := gstring.Build(img)
				if err != nil {
					return nil, fmt.Errorf("E2: %w", err)
				}
				twoStr, err := twodstring.Build(img)
				if err != nil {
					return nil, fmt.Errorf("E2: %w", err)
				}
				be += float64(beStr.StorageUnits())
				b += float64(bStr.StorageUnits())
				c += float64(cStr.StorageUnits())
				g += float64(gStr.StorageUnits())
				two += float64(twoStr.StorageUnits())
			}
			div := float64(scenesPerPoint)
			t.AddRow(FmtInt(n), density,
				fmt.Sprintf("%.1f", be/div),
				fmt.Sprintf("%.1f", b/div),
				fmt.Sprintf("%.1f", c/div),
				fmt.Sprintf("%.1f", g/div),
				fmt.Sprintf("%.1f", two/div),
				FmtInt(4*n), FmtInt(2*(4*n+1)))
		}
	}
	return t, nil
}

// judgeCanvas picks a canvas that keeps sparse scenes mostly disjoint.
func judgeCanvas(n int, density string) int {
	if density == "sparse" {
		return 20 * n
	}
	return 4 * n
}

// ConvertTiming reproduces experiment E3: Convert-2D-Be-String build time
// over an object-count sweep, with the normalised n*log2(n) constant that
// should stay flat if the claimed complexity holds.
func ConvertTiming(ns []int) *Table {
	t := &Table{
		ID:      "E3",
		Caption: "Convert-2D-Be-String build time (O(n log n) incl. sort; O(n) ex-sort)",
		Header:  []string{"n", "us/op", "ns/(n*log2 n)"},
	}
	for _, n := range ns {
		gen := workload.NewGenerator(workload.Config{
			Seed: DefaultSeed, Width: 4 * n, Height: 4 * n, Vocabulary: n, Objects: n,
		})
		img := gen.Scene()
		d := MeasureOp(defaultMeasure, func() {
			be, err := core.Convert(img)
			if err == nil {
				Sink += len(be.X)
			}
		})
		norm := float64(d.Nanoseconds()) / (float64(n) * math.Log2(float64(max(n, 2))))
		t.AddRow(FmtInt(n), FmtDur(d), fmt.Sprintf("%.1f", norm))
	}
	return t
}

// LCSTiming reproduces experiment E4: 2D-Be-LCS-Length time over an (m, n)
// grid, with the normalised m*n constant that should stay flat for the
// claimed O(mn).
func LCSTiming(ms, ns []int) *Table {
	t := &Table{
		ID:      "E4",
		Caption: "2D-Be-LCS-Length time over query size m x database size n (O(mn))",
		Header:  []string{"m", "n", "us/op", "ns/(m*n)"},
	}
	for _, m := range ms {
		for _, n := range ns {
			genQ := workload.NewGenerator(workload.Config{
				Seed: DefaultSeed + 1, Width: 4 * m, Height: 4 * m, Vocabulary: m, Objects: m,
			})
			genD := workload.NewGenerator(workload.Config{
				Seed: DefaultSeed + 2, Width: 4 * n, Height: 4 * n, Vocabulary: n, Objects: n,
			})
			q := core.MustConvert(genQ.Scene())
			d := core.MustConvert(genD.Scene())
			dur := MeasureOp(defaultMeasure, func() {
				Sink += lcs.Length(q.X, d.X) + lcs.Length(q.Y, d.Y)
			})
			norm := float64(dur.Nanoseconds()) / float64(m*n)
			t.AddRow(FmtInt(m), FmtInt(n), FmtDur(dur), fmt.Sprintf("%.1f", norm))
		}
	}
	return t
}

// Quality reproduces experiment E5: retrieval quality of the BE-LCS
// similarity versus the clique-based type-0/1/2 baselines and the
// dummy-stripped ablation, on partial-and-perturbed query workloads.
func Quality(cfg retrieval.WorkloadConfig) (*Table, error) {
	w, err := retrieval.BuildWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	methods := map[string]imagedb.Scorer{
		"be-lcs":       imagedb.BEScorer(),
		"be-lcs-nodum": imagedb.SymbolsOnlyScorer(),
		"type-0":       imagedb.TypeSimScorer(typesim.Type0),
		"type-1":       imagedb.TypeSimScorer(typesim.Type1),
		"type-2":       imagedb.TypeSimScorer(typesim.Type2),
	}
	rows, err := w.RunMethods(context.Background(), methods)
	if err != nil {
		return nil, fmt.Errorf("E5: %w", err)
	}
	t := &Table{
		ID: "E5",
		Caption: fmt.Sprintf(
			"retrieval quality: %d distractors, %d planted/query, keep %d of %d objects, jitter %d",
			w.Config.Distractors, w.Config.Relevant, w.Config.QueryKeep, w.Config.Objects, w.Config.Jitter),
		Header: []string{"method", "P@k", "R@k", "MRR", "AP"},
	}
	for _, r := range rows {
		t.AddRow(r.Method, FmtF3(r.PrecisionAtK), FmtF3(r.RecallAtK), FmtF3(r.MRR), FmtF3(r.AP))
	}
	return t, nil
}

// QualityConfigs returns the named difficulty levels of experiment E5.
// "easy" uses full exact queries (every method should be perfect);
// "medium" drops half the query objects and jitters variants; "hard" keeps
// three objects, jitters heavily and shrinks the vocabulary so distractors
// collide with query labels.
func QualityConfigs(seed int64) []struct {
	Name string
	Cfg  retrieval.WorkloadConfig
} {
	return []struct {
		Name string
		Cfg  retrieval.WorkloadConfig
	}{
		{"easy", retrieval.WorkloadConfig{Seed: seed, QueryKeep: 8, Jitter: 0}},
		{"medium", retrieval.WorkloadConfig{Seed: seed, QueryKeep: 4, Jitter: 3}},
		{"hard", retrieval.WorkloadConfig{Seed: seed, QueryKeep: 3, Jitter: 8, Vocabulary: 20}},
	}
}

// CliqueBlowup is the adversarial companion of experiment E7: it times the
// maximum-clique solver on Moon–Moser graphs (complete k-partite graphs
// with parts of size 3, which have 3^k maximal cliques — the classical
// worst case for clique enumeration) against the BE-LCS evaluation of
// images with the same number of objects. Realistic scenes rarely trigger
// the exponential behaviour; this table shows the cliff is real.
func CliqueBlowup(parts []int) *Table {
	t := &Table{
		ID:      "E7b",
		Caption: "NP-hard core: max clique on Moon-Moser K(3,...,3) vs BE-LCS at equal object count",
		Header:  []string{"objects n", "maximal cliques", "clique us/op", "be-lcs us/op", "ratio"},
	}
	for _, k := range parts {
		n := 3 * k
		g := clique.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u/3 != v/3 {
					// Different parts: edge. Indices in range by loop bounds.
					_ = g.AddEdge(u, v)
				}
			}
		}
		cliqueD := MeasureOp(defaultMeasure, func() {
			Sink += g.MaxCliqueSize()
		})
		gen := workload.NewGenerator(workload.Config{
			Seed: DefaultSeed + 4, Width: 6 * n, Height: 6 * n, Vocabulary: n, Objects: n,
		})
		base := gen.Scene()
		qbe := core.MustConvert(gen.JitterQuery(base, 2))
		dbe := core.MustConvert(base)
		lcsD := MeasureOp(defaultMeasure, func() {
			Sink += similarity.Evaluate(qbe, dbe).LX
		})
		maximal := math.Pow(3, float64(k))
		t.AddRow(FmtInt(n), fmt.Sprintf("%.0f", maximal), FmtDur(cliqueD), FmtDur(lcsD),
			fmt.Sprintf("%.1fx", float64(cliqueD)/float64(max(int(lcsD), 1))))
	}
	return t
}

// Transforms reproduces experiment E6: correctness of the string-level
// rotations/reflections against coordinate-space rebuilds, and the speedup
// of answering a transformed query on the strings versus reconverting the
// transformed image.
func Transforms(n, scenes int) (*Table, error) {
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed, Width: 4 * n, Height: 4 * n, Vocabulary: n, Objects: n,
	})
	imgs := gen.Dataset(scenes)
	t := &Table{
		ID:      "E6",
		Caption: fmt.Sprintf("linear transforms on strings vs rebuild (n=%d objects)", n),
		Header:  []string{"transform", "equal to rebuild", "string us/op", "rebuild us/op", "speedup"},
	}
	for _, tr := range core.AllTransforms {
		allEqual := true
		for _, img := range imgs {
			if !core.MustConvert(img).Apply(tr).Equal(core.MustConvert(core.ApplyToImage(img, tr))) {
				allEqual = false
			}
		}
		be := core.MustConvert(imgs[0])
		img := imgs[0]
		sd := MeasureOp(defaultMeasure, func() {
			Sink += be.Apply(tr).StorageUnits()
		})
		rd := MeasureOp(defaultMeasure, func() {
			Sink += core.MustConvert(core.ApplyToImage(img, tr)).StorageUnits()
		})
		t.AddRow(tr.String(), fmt.Sprintf("%v", allEqual), FmtDur(sd), FmtDur(rd),
			fmt.Sprintf("%.1fx", float64(rd)/float64(max(int(sd), 1))))
	}
	return t, nil
}

// MatchCost reproduces experiment E7: matching cost of the O(mn) BE-LCS
// evaluation versus the O(n^2)-pairs + maximum-clique type-i assessment,
// over an object-count sweep. The similarity values differ by design; the
// experiment compares what the paper compares — the cost of obtaining a
// similarity judgement.
func MatchCost(ns []int) *Table {
	t := &Table{
		ID:      "E7",
		Caption: "matching cost: BE-LCS (O(mn)) vs type-i pair examination + max clique (NP-hard)",
		Header:  []string{"n", "pairs", "be-lcs us/op", "type-0 us/op", "type-2 us/op", "type-0/lcs"},
	}
	for _, n := range ns {
		genQ := workload.NewGenerator(workload.Config{
			Seed: DefaultSeed + 3, Width: 6 * n, Height: 6 * n, Vocabulary: n, Objects: n,
		})
		base := genQ.Scene()
		// The query is a jittered variant so labels all match and the
		// compatibility graph is large — the demanding case for clique.
		query := genQ.JitterQuery(base, 2)
		qbe := core.MustConvert(query)
		dbe := core.MustConvert(base)
		lcsD := MeasureOp(defaultMeasure, func() {
			Sink += similarity.Evaluate(qbe, dbe).LX
		})
		t0 := MeasureOp(defaultMeasure, func() {
			Sink += typesim.Similarity(query, base, typesim.Type0).Score()
		})
		t2 := MeasureOp(defaultMeasure, func() {
			Sink += typesim.Similarity(query, base, typesim.Type2).Score()
		})
		t.AddRow(FmtInt(n), FmtInt(typesim.PairCount(query, base)),
			FmtDur(lcsD), FmtDur(t0), FmtDur(t2),
			fmt.Sprintf("%.1fx", float64(t0)/float64(max(int(lcsD), 1))))
	}
	return t
}

// SearchScaling reproduces experiment E9 (the engine experiment, not from
// the paper): ranked retrieval latency of the sharded database over a
// corpus-size sweep, comparing the full-sort path (K=0: score everything,
// sort everything) against the bounded top-K heap path at the same corpus.
// Both paths return byte-identical top-K rankings; the table shows what
// the O(n log K) accumulation saves as n grows.
func SearchScaling(sizes []int, k int) (*Table, error) {
	t := &Table{
		ID: "E9",
		Caption: fmt.Sprintf(
			"sharded search engine: full-sort (K=0) vs bounded top-%d heaps, GOMAXPROCS workers", k),
		Header: []string{"images", "shards", "fullsort us/op", "topk us/op", "speedup"},
	}
	ctx := context.Background()
	for _, n := range sizes {
		gen := workload.NewGenerator(workload.Config{
			Seed: DefaultSeed + 9, Vocabulary: 32, Objects: 8,
		})
		scenes := gen.Dataset(n)
		items := make([]imagedb.BulkItem, n)
		for i, s := range scenes {
			items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
		}
		db := imagedb.New()
		if err := db.BulkInsert(ctx, items, 0); err != nil {
			return nil, fmt.Errorf("E9: %w", err)
		}
		query := imagedb.NewQuery(gen.SubsetQuery(scenes[n/2], 4))
		fullD := MeasureOp(defaultMeasure, func() {
			page, err := db.Query(ctx, query)
			if err == nil {
				Sink += len(page.Hits)
			}
		})
		topD := MeasureOp(defaultMeasure, func() {
			page, err := db.Query(ctx, query, imagedb.WithK(k))
			if err == nil {
				Sink += len(page.Hits)
			}
		})
		t.AddRow(FmtInt(n), FmtInt(db.ShardCount()), FmtDur(fullD), FmtDur(topD),
			fmt.Sprintf("%.2fx", float64(fullD)/float64(max(int(topD), 1))))
	}
	return t, nil
}

// FilteredSearch is experiment E10 (the pipeline experiment, not from
// the paper): ranked-retrieval latency when the composable query
// pipeline narrows candidates before scoring, over a corpus sweep and a
// filter-selectivity sweep. A selectivity of s% plants a
// "tagS left-of anchorS" icon pair in s% of the corpus; the query then
// ranks by BE-LCS among images satisfying the clause, so scoring work
// shrinks with the surviving candidate count while the unfiltered
// column pays the full corpus every time.
func FilteredSearch(sizes []int, selectivities []int, k int) (*Table, error) {
	t := &Table{
		ID: "E10",
		Caption: fmt.Sprintf(
			"filtered-search scaling: Where-narrowed top-%d pipeline vs unfiltered ranked search", k),
		Header: []string{"images", "selectivity", "candidates", "unfiltered us/op", "filtered us/op", "speedup"},
	}
	ctx := context.Background()
	for _, sel := range selectivities {
		if sel <= 0 || sel > 100 || 100%sel != 0 {
			return nil, fmt.Errorf("E10: selectivity %d%% must divide 100", sel)
		}
	}
	for _, n := range sizes {
		gen := workload.NewGenerator(workload.Config{
			Seed: DefaultSeed + 10, Vocabulary: 32, Objects: 8,
		})
		scenes := gen.Dataset(n)
		items := make([]imagedb.BulkItem, n)
		for i, s := range scenes {
			// Plant one marker pair per selectivity tier on its share of
			// the corpus (i%1 == 0 marks everything: the 100% tier).
			for _, sel := range selectivities {
				if mod := 100 / sel; i%mod == 0 {
					s = s.WithObject(core.Object{
						Label: fmt.Sprintf("tag%d", sel), Box: core.NewRect(0, 0, 1, 1),
					}).WithObject(core.Object{
						Label: fmt.Sprintf("anchor%d", sel), Box: core.NewRect(3, 0, 4, 1),
					})
				}
			}
			items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
		}
		db := imagedb.New()
		if err := db.BulkInsert(ctx, items, 0); err != nil {
			return nil, fmt.Errorf("E10: %w", err)
		}
		query := gen.SubsetQuery(scenes[n/2], 4)
		var opErr error
		baseD := MeasureOp(defaultMeasure, func() {
			page, err := db.Query(ctx, imagedb.NewQuery(query), imagedb.WithK(k))
			if err != nil {
				opErr = err
				return
			}
			Sink += len(page.Hits)
		})
		if opErr != nil {
			return nil, fmt.Errorf("E10: %w", opErr)
		}
		for _, sel := range selectivities {
			where := fmt.Sprintf("tag%d left-of anchor%d", sel, sel)
			candidates := 0
			filtD := MeasureOp(defaultMeasure, func() {
				page, err := db.Query(ctx, imagedb.NewQuery(query),
					imagedb.WithK(k), imagedb.Where(where))
				if err != nil {
					opErr = err
					return
				}
				candidates = page.Total
				Sink += len(page.Hits)
			})
			if opErr != nil {
				return nil, fmt.Errorf("E10: %w", opErr)
			}
			t.AddRow(FmtInt(n), fmt.Sprintf("%d%%", sel), FmtInt(candidates),
				FmtDur(baseD), FmtDur(filtD),
				fmt.Sprintf("%.2fx", float64(baseD)/float64(max(int(filtD), 1))))
		}
	}
	return t, nil
}

// Incremental reproduces experiment E8: incremental object insert/delete
// on the coordinate-annotated BE-string versus a full reconversion.
func Incremental(ns []int) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Caption: "incremental insert/delete (binary search + splice) vs full Convert",
		Header:  []string{"n", "insert us/op", "delete us/op", "rebuild us/op"},
	}
	for _, n := range ns {
		gen := workload.NewGenerator(workload.Config{
			Seed: DefaultSeed, Width: 8 * n, Height: 8 * n, Vocabulary: n + 1, Objects: n,
		})
		img := gen.Scene()
		ix, err := core.NewIndexed(img)
		if err != nil {
			return nil, fmt.Errorf("E8: %w", err)
		}
		extra := core.Object{Label: "extra", Box: core.NewRect(0, 0, 3, 3)}
		insD := MeasureOp(defaultMeasure, func() {
			if err := ix.Insert(extra); err == nil {
				Sink++
				_ = ix.Delete(extra.Label)
			}
		})
		if err := ix.Insert(extra); err != nil {
			return nil, fmt.Errorf("E8: %w", err)
		}
		delD := MeasureOp(defaultMeasure, func() {
			if err := ix.Delete(extra.Label); err == nil {
				Sink++
				_ = ix.Insert(extra)
			}
		})
		grown := img.WithObject(extra)
		rebD := MeasureOp(defaultMeasure, func() {
			Sink += core.MustConvert(grown).StorageUnits()
		})
		// insD and delD each time an insert+delete pair; halve for one op.
		t.AddRow(FmtInt(n), FmtDur(insD/2), FmtDur(delD/2), FmtDur(rebD))
	}
	return t, nil
}

// WALThroughput is experiment E11 (the durability experiment, not from
// the paper): acknowledged-write throughput of the durable store across
// the fsync-policy x batch-size grid. Every point opens a fresh store in
// a temp directory with automatic checkpointing disabled, so the numbers
// isolate the WAL append path: fsync=always pays one fsync per
// acknowledgement, interval amortises it over a 10ms window, never leaves
// flushing to the OS. Batching amortises both the frame encode and the
// fsync over the batch, which is why records/s climbs steeply with batch
// size under fsync=always.
//
// Every point measures DURABLE throughput: the timed region ends with an
// explicit WAL flush, so interval/never do not get credit for appends
// still sitting in the OS page cache when the clock stops. The one
// writer here is sequential, so every commit is a group of one — this
// grid is the one-record-one-fsync baseline; the concurrent-writer
// coalescing axis is E11b.
func WALThroughput(batchSizes []int) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Caption: "durable store write throughput: fsync policy x batch size (auto-checkpoint off)",
		Header:  []string{"fsync", "batch", "records/s", "us/record", "wal KB"},
	}
	ctx := context.Background()
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed + 11, Vocabulary: 32, Objects: 8,
	})
	// One shared scene pool: the image payload is identical across
	// points, so only the durability knobs move the numbers.
	pool := gen.Dataset(64)
	for _, policy := range []imagedb.FsyncPolicy{
		imagedb.FsyncAlways, imagedb.FsyncInterval, imagedb.FsyncNever,
	} {
		for _, batch := range batchSizes {
			dir, err := os.MkdirTemp("", "bestring-e11-*")
			if err != nil {
				return nil, fmt.Errorf("E11: %w", err)
			}
			s, err := imagedb.OpenStore(dir, imagedb.StoreOptions{
				Fsync:           policy,
				FsyncInterval:   10 * time.Millisecond,
				CheckpointBytes: -1,
			})
			if err != nil {
				os.RemoveAll(dir)
				return nil, fmt.Errorf("E11: %w", err)
			}
			next := 0
			var opErr error
			perBatch, syncErr := measureDurable(defaultMeasure, s.Sync, func() {
				if batch == 1 {
					id := fmt.Sprintf("img%08d", next)
					next++
					if err := s.Insert(id, "", pool[next%len(pool)]); err != nil {
						opErr = err
					}
					return
				}
				items := make([]imagedb.BulkItem, batch)
				for i := range items {
					items[i] = imagedb.BulkItem{
						ID: fmt.Sprintf("img%08d", next), Image: pool[next%len(pool)],
					}
					next++
				}
				if err := s.BulkInsert(ctx, items, 0); err != nil {
					opErr = err
				}
			})
			walKB := s.StoreStats().WAL.Bytes >> 10
			closeErr := s.Close()
			os.RemoveAll(dir)
			if opErr == nil {
				opErr = syncErr
			}
			if opErr != nil {
				return nil, fmt.Errorf("E11: %w", opErr)
			}
			if closeErr != nil {
				return nil, fmt.Errorf("E11: %w", closeErr)
			}
			perRecord := perBatch / time.Duration(batch)
			recsPerSec := 0.0
			if perRecord > 0 {
				recsPerSec = float64(time.Second) / float64(perRecord)
			}
			t.AddRow(policy.String(), FmtInt(batch),
				fmt.Sprintf("%.0f", recsPerSec), FmtDur(perRecord),
				FmtInt(int(walKB)))
		}
	}
	return t, nil
}

// measureDurable times fn like MeasureOp but closes the timed region
// with flush(), so durability policies that buffer appends (interval,
// never) are billed for making the measured batch durable rather than
// just for enqueueing it. The flush is amortised over the iterations,
// mirroring how those policies amortise fsyncs in production.
func measureDurable(minDuration time.Duration, flush func() error, fn func()) (time.Duration, error) {
	// Warm-up and single-shot estimate (flushed, so the estimate is
	// consistent with the measured regime).
	start := time.Now()
	fn()
	if err := flush(); err != nil {
		return 0, err
	}
	single := time.Since(start)
	if single >= minDuration {
		return single, nil
	}
	iters := int(minDuration/single) + 1
	start = time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	if err := flush(); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(iters), nil
}

// GroupCommitScaling is experiment E11b: acknowledged-write throughput
// at fsync=always as the number of concurrent writers grows, with the
// commit group capped at one mutation (CommitBatch: 1) versus the
// default cap. Unbatched, every insert is its own frame and pays its own
// fsync in the committer, so throughput is flat in writer count (the
// disk serialises everyone). With group commit, writers that
// arrive during a commit's fsync coalesce into the next group — one
// frame, one fsync, one published version for the lot — so throughput
// scales with the writer count until the committer's CPU work per record
// dominates. "mean group" is mutations/groups: the realised coalescing
// factor, which should track the writer count.
func GroupCommitScaling(writerCounts []int, window time.Duration) (*Table, error) {
	t := &Table{
		ID:      "E11b",
		Caption: "group commit: acknowledged-write throughput at fsync=always vs concurrent writers (auto-checkpoint off)",
		Header:  []string{"writers", "unbatched rec/s", "batched rec/s", "speedup", "mean group", "largest"},
	}
	for _, writers := range writerCounts {
		base, _, err := groupCommitPoint(writers, 1, window)
		if err != nil {
			return nil, fmt.Errorf("E11b: %w", err)
		}
		batched, cs, err := groupCommitPoint(writers, 0, window)
		if err != nil {
			return nil, fmt.Errorf("E11b: %w", err)
		}
		meanGroup := 0.0
		if cs.Groups > 0 {
			meanGroup = float64(cs.Mutations) / float64(cs.Groups)
		}
		speedup := 0.0
		if base > 0 {
			speedup = batched / base
		}
		t.AddRow(FmtInt(writers),
			fmt.Sprintf("%.0f", base), fmt.Sprintf("%.0f", batched),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.1f", meanGroup),
			FmtInt(int(cs.Largest)))
	}
	return t, nil
}

// groupCommitPoint runs one E11b cell: `writers` goroutines inserting
// distinct ids into a fresh fsync=always store for the measure window,
// with commit groups capped at batch mutations: 1 is the unbatched
// baseline, 0 the default cap.
func groupCommitPoint(writers, batch int, window time.Duration) (float64, imagedb.CommitStats, error) {
	// A write-rate benchmark on a growing store is dominated by GC churn
	// at the default target; relax it identically for both modes so the
	// table compares commit protocols, not collector schedules.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	dir, err := os.MkdirTemp("", "bestring-e11b-*")
	if err != nil {
		return 0, imagedb.CommitStats{}, err
	}
	defer os.RemoveAll(dir)
	// High shard count on purpose: the copy-on-write commit path copies
	// each touched shard, so shard size — not shard count — is what the
	// write path pays; 1024 shards keep that copy small while the store
	// grows, for the batched and unbatched points alike.
	s, err := imagedb.OpenStore(dir, imagedb.StoreOptions{
		Shards:          1024,
		Fsync:           imagedb.FsyncAlways,
		CheckpointBytes: -1,
		CommitBatch:     batch,
	})
	if err != nil {
		return 0, imagedb.CommitStats{}, err
	}
	// Small records on purpose: E11b measures the commit path (queue,
	// frame, fsync, publish), not payload processing — E3 and E11 cover
	// per-record conversion and encoding cost.
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed + 11, Vocabulary: 16, Objects: 2,
	})
	pool := gen.Dataset(64)

	var ops atomic.Uint64
	var errMu sync.Mutex
	var firstErr error
	start := make(chan struct{})
	var deadline time.Time
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; time.Now().Before(deadline); i++ {
				id := fmt.Sprintf("w%02d-%08d", w, i)
				if err := s.Insert(id, "", pool[(w+i)%len(pool)]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	deadline = time.Now().Add(window)
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	cs := s.StoreStats().Commit
	closeErr := s.Close()
	if firstErr != nil {
		return 0, imagedb.CommitStats{}, firstErr
	}
	if closeErr != nil {
		return 0, imagedb.CommitStats{}, closeErr
	}
	return float64(ops.Load()) / elapsed.Seconds(), cs, nil
}

// writerPace is the interval between one E12 writer's insert+delete
// pairs: 25ms, i.e. ~80 mutations/s per writer — sustained catalog
// churn for the paper's read-dominated retrieval profile (lookups
// vastly outnumber mutations), while keeping the writers' own CPU
// share small so the table measures reader *interference* (lock
// stalls, publish contention, cache churn) rather than plain core
// sharing on small hosts. An unpaced writer saturating a core would
// measure the scheduler, not the engine.
const writerPace = 25 * time.Millisecond

// MixedReadWrite is experiment E12 (the concurrency experiment, not from
// the paper): ranked-query throughput and latency of concurrent readers
// while 0, 1 or 4 paced writers churn the store. Readers run the full
// staged pipeline against pinned MVCC snapshots and acquire no locks, so
// their numbers should stay within ~10% of the zero-writer baseline
// whatever the writer count — the acceptance bar of the snapshot
// refactor. (The pre-refactor engine took every shard's read lock plus
// the global spatial lock per query, so a bulk writer or checkpoint
// capture stalled the whole read path.)
func MixedReadWrite(n int, writerCounts []int, readers int, window time.Duration) (*Table, error) {
	t := &Table{
		ID: "E12",
		Caption: fmt.Sprintf(
			"mixed read/write: %d snapshot readers (top-10 ranked query, corpus %d) vs paced writers",
			readers, n),
		Header: []string{"images", "writers", "writes/s", "reads/s", "us/query", "vs 0 writers"},
	}
	ctx := context.Background()
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed + 12, Vocabulary: 32, Objects: 8,
	})
	scenes := gen.Dataset(n)
	items := make([]imagedb.BulkItem, n)
	for i, s := range scenes {
		items[i] = imagedb.BulkItem{ID: fmt.Sprintf("img%06d", i), Image: s}
	}
	// At least 16 shards whatever the host: shard count never changes
	// results, and a writer's copy-on-write cost is one shard's maps —
	// a single-shard layout (GOMAXPROCS=1) would bill each mutation the
	// whole corpus.
	db := imagedb.NewSharded(max(runtime.GOMAXPROCS(0), 16))
	if err := db.BulkInsert(ctx, items, 0); err != nil {
		return nil, fmt.Errorf("E12: %w", err)
	}
	query := gen.SubsetQuery(scenes[n/2], 4)
	churn := gen.Scene() // the image writers insert and delete

	baseline := 0.0
	for _, wc := range writerCounts {
		readsPerSec, writesPerSec, usPerQuery, err := mixedPoint(ctx, db, query, churn, wc, readers, window)
		if err != nil {
			return nil, fmt.Errorf("E12 (%d writers): %w", wc, err)
		}
		if baseline == 0 {
			baseline = readsPerSec
		}
		t.AddRow(FmtInt(n), FmtInt(wc),
			fmt.Sprintf("%.0f", writesPerSec),
			fmt.Sprintf("%.0f", readsPerSec),
			fmt.Sprintf("%.0f", usPerQuery),
			fmt.Sprintf("%.2fx", readsPerSec/baseline))
	}
	return t, nil
}

// mixedPoint measures one (writers, readers) cell: readers issue ranked
// top-10 queries for the window while each writer insert-then-deletes a
// fresh id every writerPace.
func mixedPoint(ctx context.Context, db *imagedb.DB, query, churn core.Image,
	writers, readers int, window time.Duration) (readsPerSec, writesPerSec, usPerQuery float64, err error) {
	stop := make(chan struct{})
	var errMu sync.Mutex
	var firstErr error
	record := func(e error) {
		if e == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		errMu.Unlock()
	}

	var writes atomic.Int64
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			tick := time.NewTicker(writerPace)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				id := fmt.Sprintf("churn-%d-%d", w, i)
				if e := db.Insert(id, "", churn); e != nil {
					record(e)
					return
				}
				if e := db.Delete(id); e != nil {
					record(e)
					return
				}
				writes.Add(2)
			}
		}(w)
	}

	var ops atomic.Int64
	start := time.Now()
	deadline := start.Add(window)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for time.Now().Before(deadline) {
				page, e := db.Query(ctx, imagedb.NewQuery(query), imagedb.WithK(10))
				if e != nil {
					record(e)
					return
				}
				if len(page.Hits) == 0 {
					record(fmt.Errorf("ranked query returned no hits"))
					return
				}
				ops.Add(1)
			}
		}()
	}
	readerWG.Wait()
	elapsed := time.Since(start)
	close(stop)
	writerWG.Wait()
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	reads := ops.Load()
	if reads == 0 || elapsed <= 0 {
		return 0, 0, 0, fmt.Errorf("no reads completed in %v", window)
	}
	readsPerSec = float64(reads) / elapsed.Seconds()
	writesPerSec = float64(writes.Load()) / elapsed.Seconds()
	usPerQuery = float64(readers) * elapsed.Seconds() * 1e6 / float64(reads)
	return readsPerSec, writesPerSec, usPerQuery, nil
}
