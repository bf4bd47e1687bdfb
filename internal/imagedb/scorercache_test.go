package imagedb

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bestring/internal/core"
)

// TestScorerCacheRankingByteIdentical pins the cache's acceptance
// criterion: with the cache warm or cold, Hits, Total and NextCursor
// are byte-identical to the same query with the cache disabled, across
// scorers, K, MinScore, parallelism and full cursor walks.
func TestScorerCacheRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 987, 80)
	img := g.SubsetQuery(g.Scene(), 4)

	cases := [][]QueryOption{
		{WithK(10)},
		{}, // unbounded: every candidate evaluates, maximal cache traffic
		{WithK(10), WithScorer("invariant")},
		{WithK(10), WithScorer("symbols")},
		{WithK(10), WithScorer("type1")}, // not BE-pure: never cached
		{WithK(10), WithMinScore(0.4)},
		{WithK(5), WithOffset(7)},
		{WithK(10), WithLabelPrefilter(true)},
		{WithK(10), WithPruning(false)},
	}
	// Three passes: cold cache, warm cache, warm cache again — all must
	// match the uncached run.
	for pass := 0; pass < 3; pass++ {
		for i, opts := range cases {
			for _, par := range []int{0, 1, 3} {
				base := append([]QueryOption{WithParallelism(par)}, opts...)
				on, err := db.Query(ctx, NewQuery(img), append(base, WithScorerCache(true))...)
				if err != nil {
					t.Fatal(err)
				}
				off, err := db.Query(ctx, NewQuery(img), append(base, WithScorerCache(false))...)
				if err != nil {
					t.Fatal(err)
				}
				if gj, wj := pageID(t, on), pageID(t, off); gj != wj {
					t.Fatalf("pass %d case %d parallelism %d: cached ranking diverged\n  on: %s\n off: %s",
						pass, i, par, gj, wj)
				}
				if off.Plan.CacheHits != 0 || off.Plan.CacheMisses != 0 {
					t.Fatalf("cache disabled but outcomes reported: %+v", off.Plan)
				}
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

	// Cursor walk, warm cache vs cache off.
	walk := func(cached bool) string {
		var all []Hit
		cursor := ""
		for {
			opts := []QueryOption{WithK(7), WithScorerCache(cached)}
			if cursor != "" {
				opts = append(opts, WithCursor(cursor))
			}
			page, err := db.Query(ctx, NewQuery(img), opts...)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, page.Hits...)
			if page.NextCursor == "" {
				j := ""
				for _, h := range all {
					j += fmt.Sprintf("%s/%v;", h.ID, h.Score)
				}
				return j
			}
			cursor = page.NextCursor
		}
	}
	if on, off := walk(true), walk(false); on != off {
		t.Fatalf("cursor walk diverged:\n  on: %s\n off: %s", on, off)
	}
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

	verify := func(label string, run func(opts ...QueryOption) *Page) {
		t.Helper()
		on := run(WithScorerCache(true))
		off := run(WithScorerCache(false))
		if gj, wj := pageID(t, on), pageID(t, off); gj != wj {
			t.Fatalf("%s: cached ranking diverged\n  on: %s\n off: %s", label, gj, wj)
		}
	}
	onDB := func(opts ...QueryOption) *Page {
		page, err := db.Query(ctx, NewQuery(img), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Warm the cache over the full corpus (K=0: every candidate pays an
	// exact evaluation).
	verify("cold", onDB)

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
	verify("after-mutation", onDB)
	// ...including for queries that run hot against specific entries.
	verify("after-mutation-warm", onDB)

	// ...while the pinned old snapshot still ranks its own versions
	// exactly, cache on or off (its entry pointers still key their old
	// scores).
	verify("old-snapshot", func(opts ...QueryOption) *Page {
		page, err := old.Query(ctx, NewQuery(img), opts...)
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
// writers: pinned-snapshot rankings must stay byte-identical cache-on
// vs cache-off while entries churn underneath. Run with -race this also
// exercises the cache's locking.
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
		on, err := snap.Query(ctx, NewQuery(img), WithK(15))
		if err != nil {
			t.Fatal(err)
		}
		off, err := snap.Query(ctx, NewQuery(img), WithK(15), WithScorerCache(false))
		if err != nil {
			t.Fatal(err)
		}
		if gj, wj := pageID(t, on), pageID(t, off); gj != wj {
			t.Fatalf("round %d: churned ranking diverged\n  on: %s\n off: %s", round, gj, wj)
		}
	}
	close(stop)
	wg.Wait()
}

// TestScorerCacheEvictionAndStats pins the LRU bound, the lifetime
// eviction counter and the enable/disable/resize surface.
func TestScorerCacheEvictionAndStats(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 8, 60)
	img := g.SubsetQuery(g.Scene(), 3)

	// Shrink to 16 entries (one per stripe). The query's first sighting
	// bypasses the cache and so cannot evict; its second run fills, and
	// an unbounded query over ~58 survivors must then evict.
	db.SetScorerCacheCapacity(16)
	page, err := db.Query(ctx, NewQuery(img))
	if err != nil {
		t.Fatal(err)
	}
	if st := db.ScorerCacheStats(); !page.Plan.CacheBypassed || st.Entries != 0 || st.Evictions != 0 {
		t.Fatalf("first sighting touched the cache: plan %+v, stats %+v", page.Plan, st)
	}
	if _, err := db.Query(ctx, NewQuery(img)); err != nil {
		t.Fatal(err)
	}
	st := db.ScorerCacheStats()
	if !st.Enabled || st.Capacity != 16 {
		t.Fatalf("stats %+v, want enabled with capacity 16", st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overflowing a 16-entry cache: %+v", st)
	}

	// Eviction total survives a resize (it is DB-lifetime, not cache-
	// lifetime).
	evBefore := st.Evictions
	db.SetScorerCacheCapacity(DefaultScorerCacheCapacity)
	if got := db.ScorerCacheStats().Evictions; got != evBefore {
		t.Fatalf("eviction counter reset by resize: %d, want %d", got, evBefore)
	}

	// Disabled: queries run, no outcomes, stats say so.
	db.SetScorerCacheCapacity(0)
	page, err = db.Query(ctx, NewQuery(img))
	if err != nil {
		t.Fatal(err)
	}
	if page.Plan.CacheHits+page.Plan.CacheMisses != 0 {
		t.Fatalf("disabled cache reported outcomes: %+v", page.Plan)
	}
	if st := db.ScorerCacheStats(); st.Enabled {
		t.Fatalf("stats report enabled after disable: %+v", st)
	}

	// Cumulative DB counters pick up hits/misses.
	db.SetScorerCacheCapacity(DefaultScorerCacheCapacity)
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
