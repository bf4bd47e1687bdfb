package imagedb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

func TestTopKKeepsBestK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all []Result
	h := newTopK(5)
	for i := 0; i < 200; i++ {
		r := Result{ID: fmt.Sprintf("id%03d", i), Score: float64(rng.Intn(40)) / 40}
		all = append(all, r)
		h.add(r)
	}
	sortResults(all)
	want := all[:5]
	got := make([]Result, len(h.items))
	copy(got, h.items)
	sortResults(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap kept %+v at %d, want %+v", got[i], i, want[i])
		}
	}
}

func TestTopKTieBreaksByID(t *testing.T) {
	h := newTopK(2)
	for _, id := range []string{"c", "a", "d", "b"} {
		h.add(Result{ID: id, Score: 0.5})
	}
	got := make([]Result, len(h.items))
	copy(got, h.items)
	sortResults(got)
	if got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("tied top-2 = %v, want ids a, b", got)
	}
}

func TestTopKUnboundedWhenKZero(t *testing.T) {
	h := newTopK(0)
	for i := 0; i < 50; i++ {
		h.add(Result{ID: fmt.Sprintf("id%02d", i), Score: float64(i)})
	}
	if len(h.items) != 50 {
		t.Errorf("unbounded heap kept %d, want all 50", len(h.items))
	}
}

// seedSharded fills a database with the given shard count.
func seedSharded(t *testing.T, shards, n int) (*DB, []core.Image) {
	t.Helper()
	db := NewSharded(shards)
	g := workload.NewGenerator(workload.Config{Seed: 11, Vocabulary: 24})
	scenes := g.Dataset(n)
	for i, s := range scenes {
		if err := db.Insert(fmt.Sprintf("img%03d", i), fmt.Sprintf("scene %d", i), s); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return db, scenes
}

// search runs a ranked query for img through the one read door and
// reduces the page to the (id, name, score) triples the full-sort
// reference produces. db is a *DB or a *Snapshot.
func search(ctx context.Context, db interface {
	Query(context.Context, *Query, ...QueryOption) (*Page, error)
}, img core.Image, opts ...QueryOption) ([]Result, error) {
	page, err := db.Query(ctx, NewQuery(img), opts...)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(page.Hits))
	for i, h := range page.Hits {
		out[i] = Result{ID: h.ID, Name: h.Name, Score: h.Score}
	}
	return out, nil
}

// referenceSearch is the seed engine's semantics, reimplemented serially:
// score every candidate, sort everything, filter, truncate. It reads the
// image, scorer, K and MinScore of the same options the engine is given.
func referenceSearch(db *DB, query core.Image, opts ...QueryOption) []Result {
	spec := NewQuery(query).apply(opts)
	queryBE := core.MustConvert(query)
	scorer := referenceScorer(spec.scorerName)
	var all []Result
	for _, id := range db.IDs() {
		e, _ := db.Get(id)
		score := scorer(query, queryBE, e)
		if score < spec.minScore {
			continue
		}
		all = append(all, Result{ID: e.ID, Name: e.Name, Score: score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if spec.k > 0 && len(all) > spec.k {
		all = all[:spec.k]
	}
	return all
}

// TestSearchMatchesFullSortReference is the engine-equivalence guarantee:
// for the same (query, K, MinScore) the heap-merged ranking must be
// byte-identical to the score-everything-then-sort reference, whatever the
// shard count or worker parallelism.
func TestSearchMatchesFullSortReference(t *testing.T) {
	g := workload.NewGenerator(workload.Config{Seed: 31, Vocabulary: 20})
	queries := []core.Image{g.Scene(), g.SubsetQuery(g.Scene(), 3)}
	for _, shards := range []int{1, 3, 8} {
		db, scenes := seedSharded(t, shards, 40)
		queries = append(queries, scenes[7])
		for _, q := range queries {
			for _, tc := range []struct {
				name string
				opts []QueryOption
			}{
				{name: "all"},
				{name: "k=1", opts: []QueryOption{WithK(1)}},
				{name: "k=5", opts: []QueryOption{WithK(5)}},
				{name: "k=40", opts: []QueryOption{WithK(40)}},
				{name: "k=1000", opts: []QueryOption{WithK(1000)}},
				{name: "k=5 min=0.4", opts: []QueryOption{WithK(5), WithMinScore(0.4)}},
				{name: "min=0.4", opts: []QueryOption{WithMinScore(0.4)}},
				{name: "k=3 par=1", opts: []QueryOption{WithK(3), WithParallelism(1)}},
				{name: "k=3 par=2", opts: []QueryOption{WithK(3), WithParallelism(2)}},
				{name: "k=3 par=16", opts: []QueryOption{WithK(3), WithParallelism(16)}},
				{name: "k=4 invariant", opts: []QueryOption{WithK(4), WithScorer("invariant")}},
				{name: "k=5 prefilter", opts: []QueryOption{WithK(5), WithLabelPrefilter(true)}},
			} {
				got, err := search(context.Background(), db, q, tc.opts...)
				if err != nil {
					t.Fatalf("shards=%d %s: %v", shards, tc.name, err)
				}
				want := referenceSearch(db, q, tc.opts...)
				if NewQuery(q).apply(tc.opts).labelPrefilter {
					// The reference scores everything; the prefiltered top-K
					// must still lead it identically when K results survive.
					if len(got) > len(want) {
						t.Fatalf("shards=%d prefilter returned more than reference", shards)
					}
					want = want[:len(got)]
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d %s: got %d results, want %d",
						shards, tc.name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("shards=%d %s: result %d = %+v, want %+v",
							shards, tc.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSearchMinScoreBoundaryKept(t *testing.T) {
	db := New()
	img := core.Figure1Image()
	if err := db.Insert("exact", "", img); err != nil {
		t.Fatal(err)
	}
	// A result scoring exactly MinScore is kept (filter is strictly-below).
	results, err := search(context.Background(), db, img, WithK(5), WithMinScore(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "exact" || results[0].Score != 1 {
		t.Errorf("boundary results = %+v, want exact @ 1.0", results)
	}
	results, err = search(context.Background(), db, img, WithK(5), WithMinScore(1.0000001))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("above-boundary results = %+v, want none", results)
	}
}

func TestSearchKLargerThanCorpus(t *testing.T) {
	db, scenes := seedSharded(t, 4, 6)
	results, err := search(context.Background(), db, scenes[0], WithK(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Errorf("K=500 over 6 images returned %d results", len(results))
	}
}

func TestSearchAllTiedResultsOrderByID(t *testing.T) {
	db := NewSharded(4)
	img := core.Figure1Image()
	// Identical images under shuffled ids: every score ties at 1.0, so the
	// ranking must be pure ascending id whatever shard each lands on.
	for _, id := range []string{"m", "c", "z", "a", "q", "f"} {
		if err := db.Insert(id, "", img); err != nil {
			t.Fatal(err)
		}
	}
	results, err := search(context.Background(), db, img, WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "c", "f", "m"}
	for i, r := range results {
		if r.ID != want[i] || r.Score != 1 {
			t.Fatalf("tied results = %+v, want ids %v all @ 1.0", results, want)
		}
	}
}

func TestSearchCancelledMidShard(t *testing.T) {
	const workers, tripAt = 2, 5
	db, scenes := seedSharded(t, 4, 8*rankChunk)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	// The kernel trips cancellation partway through the corpus, while
	// workers are mid-chunk; the search must report the context error,
	// and each worker stops when it goes to claim its next chunk. type0
	// has no bound, so every candidate reaches the kernel in scan order.
	tripping := withKernelWrap(func(k scoreKernel) scoreKernel {
		return func(e *stored, c cut) (float64, bool) {
			if calls.Add(1) == tripAt {
				cancel()
			}
			return k(e, c)
		}
	})
	_, err := search(ctx, db, scenes[0], WithK(3), WithScorer("type0"), tripping, WithParallelism(workers))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > tripAt+workers*rankChunk {
		t.Errorf("scored %d candidates after a cancel at %d, want each of %d workers to stop within its chunk of %d",
			n, tripAt, workers, rankChunk)
	}
	waitGoroutines(t, before)
}

func TestStatsAndShardCount(t *testing.T) {
	db, _ := seedSharded(t, 5, 23)
	if db.ShardCount() != 5 {
		t.Fatalf("ShardCount = %d, want 5", db.ShardCount())
	}
	s := db.Stats()
	if s.Shards != 5 || s.Images != 23 || len(s.PerShard) != 5 {
		t.Fatalf("Stats = %+v", s)
	}
	total := 0
	for _, n := range s.PerShard {
		total += n
	}
	if total != 23 {
		t.Errorf("per-shard counts sum to %d, want 23", total)
	}
}

func TestBulkInsertAtomicAcrossShards(t *testing.T) {
	db := NewSharded(3)
	g := workload.NewGenerator(workload.Config{Seed: 3, Vocabulary: 12})
	if err := db.Insert("taken", "", g.Scene()); err != nil {
		t.Fatal(err)
	}
	items := []BulkItem{
		{ID: "a", Image: g.Scene()},
		{ID: "taken", Image: g.Scene()}, // collides with the existing entry
		{ID: "b", Image: g.Scene()},
	}
	if err := db.BulkInsert(context.Background(), items, 2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if db.Len() != 1 {
		t.Errorf("failed bulk insert left %d entries, want 1", db.Len())
	}
	ok := []BulkItem{
		{ID: "a", Image: g.Scene()},
		{ID: "b", Image: g.Scene()},
		{ID: "c", Image: g.Scene()},
	}
	if err := db.BulkInsert(context.Background(), ok, 2); err != nil {
		t.Fatal(err)
	}
	want := []string{"taken", "a", "b", "c"}
	got := db.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v (insertion order across shards)", got, want)
		}
	}
}

func TestInsertionOrderSurvivesShardingAndReload(t *testing.T) {
	db, _ := seedSharded(t, 7, 12)
	ids := db.IDs()
	for i, id := range ids {
		if want := fmt.Sprintf("img%03d", i); id != want {
			t.Fatalf("ids[%d] = %q, want %q", i, id, want)
		}
	}
	if err := db.Delete("img005"); err != nil {
		t.Fatal(err)
	}
	ids = db.IDs()
	if len(ids) != 11 || ids[5] != "img006" {
		t.Errorf("order after delete = %v", ids)
	}
}

// TestConcurrentUpdateAndSearch pins the copy-on-write invariant: search
// workers read snapshot entries outside any lock, so in-place object
// updates must replace the stored entry, never mutate it. Run under
// -race this fails if an object update writes a published entry.
func TestConcurrentUpdateAndSearch(t *testing.T) {
	db, scenes := seedSharded(t, 4, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("img%03d", i%16)
			extra := core.Object{Label: fmt.Sprintf("xtra%d", i), Box: core.NewRect(0, 0, 1, 1)}
			if err := db.InsertObject(id, extra); err != nil {
				t.Errorf("InsertObject: %v", err)
				return
			}
			if err := db.DeleteObject(id, extra.Label); err != nil {
				t.Errorf("DeleteObject: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		if _, err := search(context.Background(), db, scenes[i%16], WithK(3), WithParallelism(2)); err != nil {
			t.Fatalf("Search: %v", err)
		}
		if _, err := db.Query(context.Background(), NewMatchQuery(), InRegion(core.NewRect(0, 0, 40, 40))); err != nil {
			t.Fatalf("region query: %v", err)
		}
	}
	<-done
}
