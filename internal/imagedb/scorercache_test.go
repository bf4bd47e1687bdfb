package imagedb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bestring/internal/baseline/typesim"
	"bestring/internal/core"
	"bestring/internal/obs"
)

// TestScorerCacheRankingByteIdentical pins the cache's acceptance
// criterion: cold (first sighting, bypassed), filling and warm, Hits,
// Total and NextCursor are byte-identical to the naive full-sort
// reference, which caches nothing, across scorers, K, MinScore,
// parallelism and full cursor walks.
func TestScorerCacheRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 987, 80)
	img := g.SubsetQuery(g.Scene(), 4)
	ref := func(spec composedSpec) composedSpec {
		spec.image, spec.whereMin = &img, -1
		return spec
	}

	cases := []struct {
		opts []QueryOption
		spec composedSpec
	}{
		{[]QueryOption{WithK(10)}, ref(composedSpec{k: 10})},
		{nil, ref(composedSpec{})}, // unbounded: every candidate evaluates, maximal cache traffic
		{[]QueryOption{WithK(10), WithScorer("invariant")}, ref(composedSpec{k: 10, scorer: InvariantScorer(nil)})},
		{[]QueryOption{WithK(10), WithScorer("symbols")}, ref(composedSpec{k: 10, scorer: SymbolsOnlyScorer()})},
		{[]QueryOption{WithK(10), WithScorer("type1")}, ref(composedSpec{k: 10, scorer: TypeSimScorer(typesim.Type1)})}, // not BE-pure: never cached
		{[]QueryOption{WithK(10), WithMinScore(0.4)}, ref(composedSpec{k: 10, minScore: 0.4})},
		{[]QueryOption{WithK(5), WithOffset(7)}, ref(composedSpec{k: 5, offset: 7})},
		{[]QueryOption{WithK(10), WithLabelPrefilter(true)}, ref(composedSpec{k: 10, labelPrefilter: true})},
	}
	// Three passes: cold cache, warm cache, warm cache again — all must
	// match the reference.
	for pass := 0; pass < 3; pass++ {
		for i, c := range cases {
			for _, par := range []int{0, 1, 3} {
				page, err := db.Query(ctx, NewQuery(img), append([]QueryOption{WithParallelism(par)}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				assertReference(t, fmt.Sprintf("pass %d case %d parallelism %d", pass, i, par), db, page, c.spec)
			}
		}
	}

	// The warm unbounded run must actually hit.
	warm, err := db.Query(ctx, NewQuery(img))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Plan.CacheHits == 0 {
		t.Fatalf("no cache hits on a warm repeated query: %+v", warm.Plan)
	}
	if warm.Plan.CacheHits+warm.Plan.CacheMisses != warm.Stages.Evaluated {
		t.Fatalf("cache outcomes %d+%d != evaluated %d",
			warm.Plan.CacheHits, warm.Plan.CacheMisses, warm.Stages.Evaluated)
	}

	// Non-BE-pure scorers never touch the cache.
	typed, err := db.Query(ctx, NewQuery(img), WithScorer("type1"), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	if typed.Plan.CacheHits+typed.Plan.CacheMisses != 0 {
		t.Fatalf("type1 is not BE-pure but used the cache: %+v", typed.Plan)
	}

	// Cursor walk on the warm cache.
	assertWalkMatchesReference(t, "cursor walk", db, ref(composedSpec{k: 7}), func(cursor string) *Page {
		page, err := db.Query(ctx, NewQuery(img), WithK(7), WithCursor(cursor))
		if err != nil {
			t.Fatal(err)
		}
		return page
	})
}

// TestScorerCacheInvalidationExact pins the MVCC invalidation: after an
// entry is updated, deleted, or re-created under the same id, a warm
// cache serves the NEW exact scores for the new version — and an old
// pinned snapshot still gets the OLD exact scores for its version.
// Pointer-identity keys make both directions automatic.
func TestScorerCacheInvalidationExact(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 654, 60)
	img := g.SubsetQuery(g.Scene(), 4)
	spec := composedSpec{image: &img, whereMin: -1}

	// verify runs the unbounded query (every candidate pays an exact
	// evaluation) twice against src — the second run is past its key's
	// first sighting, so it fills or hits — and checks both against the
	// reference over the same version.
	verify := func(label string, src referenceSource, run func() *Page) {
		t.Helper()
		for i := 1; i <= 2; i++ {
			assertReference(t, fmt.Sprintf("%s run %d", label, i), src, run(), spec)
		}
	}
	onDB := func() *Page {
		page, err := db.Query(ctx, NewQuery(img))
		if err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Warm the cache over the full corpus.
	verify("cold", db, onDB)

	// Pin the pre-mutation version, then mutate through every path that
	// replaces an entry version.
	old := db.Snapshot()
	if err := db.InsertObject("bulk0005", core.Object{Label: "fresh", Box: core.NewRect(1, 1, 9, 9)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteObject("bulk0006", firstLabel(t, db, "bulk0006")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("one0030"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("one0031", "recreated", g.Scene()); err != nil {
		// one0031 exists; replace it via delete + insert.
		if err := db.Delete("one0031"); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("one0031", "recreated", g.Scene()); err != nil {
			t.Fatal(err)
		}
	}

	// The warm cache must now serve the new versions' scores...
	verify("after-mutation", db, onDB)
	// ...including for queries that run hot against specific entries.
	verify("after-mutation-warm", db, onDB)

	// ...while the pinned old snapshot still ranks its own versions
	// exactly (its entry pointers still key their old scores).
	verify("old-snapshot", old, func() *Page {
		page, err := old.Query(ctx, NewQuery(img))
		if err != nil {
			t.Fatal(err)
		}
		return page
	})
	if got, want := old.Epoch(), db.Epoch(); got >= want {
		t.Fatalf("snapshot epoch %d not older than current %d — mutations did not publish", got, want)
	}
}

// TestScorerCacheChurnByteIdentical hammers the cache under concurrent
// writers: pinned-snapshot rankings must stay byte-identical to the
// reference over the same snapshot while entries churn underneath. Run
// with -race this also exercises the cache's locking.
func TestScorerCacheChurnByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 321, 60)
	img := g.SubsetQuery(g.Scene(), 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("bulk%04d", i%20)
			_ = db.InsertObject(id, core.Object{Label: fmt.Sprintf("churn%d", i%3), Box: core.NewRect(0, 0, 3, 3)})
			_ = db.DeleteObject(id, fmt.Sprintf("churn%d", i%3))
			i++
		}
	}()

	for round := 0; round < 20; round++ {
		snap := db.Snapshot()
		page, err := snap.Query(ctx, NewQuery(img), WithK(15))
		if err != nil {
			t.Fatal(err)
		}
		assertReference(t, fmt.Sprintf("round %d", round), snap, page, composedSpec{image: &img, whereMin: -1, k: 15})
	}
	close(stop)
	wg.Wait()
}

// TestScorerCacheEvictionAndStats pins the LRU bound, the eviction
// counter and its metrics series, and the cumulative hit/miss counters.
func TestScorerCacheEvictionAndStats(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 8, 60)
	img := g.SubsetQuery(g.Scene(), 3)
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	series := func(name string) string {
		t.Helper()
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("series %s missing", name)
		return ""
	}

	// A 16-entry cache (one per stripe), installed before any query. The
	// query's first sighting bypasses the cache and so cannot evict; its
	// second run fills, and an unbounded query over ~58 survivors must
	// then evict.
	db.cache = newScorerCache(16)
	page, err := db.Query(ctx, NewQuery(img))
	if err != nil {
		t.Fatal(err)
	}
	if !page.Plan.CacheBypassed || db.cache.Len() != 0 || db.cache.evictions.Load() != 0 {
		t.Fatalf("first sighting touched the cache: plan %+v, %d entries, %d evictions",
			page.Plan, db.cache.Len(), db.cache.evictions.Load())
	}
	if _, err := db.Query(ctx, NewQuery(img)); err != nil {
		t.Fatal(err)
	}
	if n, capacity := db.cache.Len(), db.cache.perShard*scorerCacheShards; n == 0 || n > capacity {
		t.Fatalf("occupancy %d, want 1..%d", n, capacity)
	}
	evictions := db.cache.evictions.Load()
	if evictions == 0 {
		t.Fatal("no evictions after overflowing a 16-entry cache")
	}
	if got, want := series("bestring_scorer_cache_evictions_total"), fmt.Sprint(evictions); got != want {
		t.Fatalf("evictions series %s, cache counted %s", got, want)
	}
	if got, want := series("bestring_scorer_cache_entries"), fmt.Sprint(db.cache.Len()); got != want {
		t.Fatalf("entries series %s, cache holds %s", got, want)
	}

	// Cumulative DB counters pick up hits/misses (on a cache big enough to
	// hold the whole ranking).
	db.cache = newScorerCache(DefaultScorerCacheCapacity)
	before := db.Stats().Search
	if _, err := db.Query(ctx, NewQuery(img)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, NewQuery(img)); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().Search
	if after.CacheMisses == before.CacheMisses {
		t.Fatalf("cumulative misses did not move: %+v -> %+v", before, after)
	}
	if after.CacheHits == before.CacheHits {
		t.Fatalf("cumulative hits did not move: %+v -> %+v", before, after)
	}
}

// TestCacheQueryKeyInjective pins the canonical encoding: distinct
// (scorer, BE) pairs — including adversarial label boundaries — encode
// to distinct keys.
func TestCacheQueryKeyInjective(t *testing.T) {
	tok := func(label string, k core.Kind) core.Token { return core.Token{Label: label, Kind: k} }
	dummy := core.Token{Dummy: true}
	pairs := []struct {
		scorer string
		be     core.BEString
	}{
		{"be", core.BEString{X: core.Axis{tok("a", core.Begin), tok("a", core.End)}}},
		{"be", core.BEString{X: core.Axis{tok("a", core.Begin), tok("a", core.Begin)}}},
		{"be", core.BEString{Y: core.Axis{tok("a", core.Begin), tok("a", core.End)}}},
		{"be", core.BEString{X: core.Axis{tok("ab", core.Begin)}, Y: core.Axis{tok("c", core.Begin)}}},
		{"be", core.BEString{X: core.Axis{tok("a", core.Begin)}, Y: core.Axis{tok("bc", core.Begin)}}},
		{"be", core.BEString{X: core.Axis{dummy, tok("a", core.Begin)}}},
		{"be", core.BEString{X: core.Axis{tok("E", core.Begin), tok("a", core.Begin)}}},
		{"invariant", core.BEString{X: core.Axis{tok("a", core.Begin), tok("a", core.End)}}},
		{"b", core.BEString{X: core.Axis{tok("ea", core.Begin), tok("a", core.End)}}},
	}
	seen := make(map[string]int)
	for i, p := range pairs {
		k := cacheQueryKey(p.scorer, p.be)
		if j, dup := seen[k]; dup {
			t.Fatalf("pairs %d and %d collide on %q", j, i, k)
		}
		seen[k] = i
	}
}
