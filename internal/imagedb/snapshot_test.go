package imagedb

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bestring/internal/core"
	"bestring/internal/workload"
)

// seedSnapshotDB builds a deterministic corpus of n scenes.
func seedSnapshotDB(t testing.TB, shards, n int) (*DB, []core.Image) {
	t.Helper()
	db := NewSharded(shards)
	g := workload.NewGenerator(workload.Config{Seed: 99, Vocabulary: 16, Objects: 6})
	scenes := g.Dataset(n)
	items := make([]BulkItem, n)
	for i, s := range scenes {
		items[i] = BulkItem{ID: fmt.Sprintf("img%04d", i), Name: fmt.Sprintf("scene %d", i), Image: s}
	}
	if err := db.BulkInsert(context.Background(), items, 0); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return db, scenes
}

// TestSnapshotIsolation pins the MVCC contract: a pinned Snapshot never
// observes later mutations — not in Len, Get, IDs, region probes or
// ranked queries — while the DB itself does.
func TestSnapshotIsolation(t *testing.T) {
	ctx := context.Background()
	db, scenes := seedSnapshotDB(t, 4, 40)
	query := scenes[7]

	sn := db.Snapshot()
	epoch := sn.Epoch()
	before, err := sn.Query(ctx, NewQuery(query), WithK(0))
	if err != nil {
		t.Fatalf("snapshot query: %v", err)
	}
	beforeIDs := sn.IDs()

	// Mutate heavily: deletes, inserts, object updates.
	for i := 0; i < 10; i++ {
		if err := db.Delete(fmt.Sprintf("img%04d", i)); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	if err := db.Insert("fresh", "", scenes[3]); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := db.InsertObject("img0020", core.Object{Label: "added", Box: core.NewRect(0, 0, 1, 1)}); err != nil {
		t.Fatalf("insert object: %v", err)
	}

	if got := sn.Epoch(); got != epoch {
		t.Fatalf("pinned epoch moved: %d -> %d", epoch, got)
	}
	if sn.Len() != 40 {
		t.Fatalf("snapshot Len = %d, want 40", sn.Len())
	}
	if db.Len() != 31 {
		t.Fatalf("db Len = %d, want 31", db.Len())
	}
	if !sn.Has("img0003") {
		t.Fatal("snapshot lost a deleted entry")
	}
	if sn.Has("fresh") {
		t.Fatal("snapshot sees an entry inserted after the pin")
	}
	if e, ok := sn.Get("img0020"); !ok || len(e.Image.Objects) != len(scenes[20].Objects) {
		t.Fatal("snapshot sees the object update")
	}
	after, err := sn.Query(ctx, NewQuery(query), WithK(0))
	if err != nil {
		t.Fatalf("snapshot query after mutations: %v", err)
	}
	hitsEqual(t, "snapshot query repeatability", after.Hits, before.Hits)
	if got := sn.IDs(); len(got) != len(beforeIDs) {
		t.Fatalf("snapshot IDs changed: %d -> %d", len(beforeIDs), len(got))
	}
	if db.Epoch() <= epoch {
		t.Fatalf("db epoch %d did not advance past %d", db.Epoch(), epoch)
	}
}

// TestEpochMonotonic pins the version-numbering contract: every mutation
// publishes exactly one new epoch (a bulk batch is one), and failed
// mutations publish nothing.
func TestEpochMonotonic(t *testing.T) {
	db := New()
	g := workload.NewGenerator(workload.Config{Seed: 3, Vocabulary: 8, Objects: 4})
	e0 := db.Epoch()
	if e0 == 0 {
		t.Fatal("epoch 0 is reserved for unpinned cursors")
	}
	if err := db.Insert("a", "", g.Scene()); err != nil {
		t.Fatal(err)
	}
	if got := db.Epoch(); got != e0+1 {
		t.Fatalf("after insert: epoch %d, want %d", got, e0+1)
	}
	items := []BulkItem{{ID: "b", Image: g.Scene()}, {ID: "c", Image: g.Scene()}}
	if err := db.BulkInsert(context.Background(), items, 0); err != nil {
		t.Fatal(err)
	}
	if got := db.Epoch(); got != e0+2 {
		t.Fatalf("after bulk: epoch %d, want %d (one bump per batch)", got, e0+2)
	}
	if err := db.Insert("a", "", g.Scene()); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := db.Delete("nope"); err == nil {
		t.Fatal("missing delete succeeded")
	}
	if got := db.Epoch(); got != e0+2 {
		t.Fatalf("failed mutations moved the epoch: %d, want %d", got, e0+2)
	}
}

// TestQueryProceedsWhileWriterLockHeld pins the lock-freedom of the read
// path structurally: a query must complete while the writer mutex is
// held, which was impossible under the old per-shard RWMutex design.
func TestQueryProceedsWhileWriterLockHeld(t *testing.T) {
	db, scenes := seedSnapshotDB(t, 4, 30)
	db.mu.Lock()
	defer db.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		page, err := db.Query(ctx, NewQuery(scenes[0]), WithK(5))
		if err == nil && len(page.Hits) == 0 {
			err = fmt.Errorf("no hits")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("query under held writer lock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked on the writer lock")
	}
}

// TestCursorPinsEpochUnderChurn is the race-stress test of the
// pagination contract: while writers continuously BulkInsert and Delete,
// a paginated query walked page by page through DB.Query (cursors only —
// each page request resolves the pinned epoch from the retained ring)
// must deliver exactly the pinned version's ranking: no skips, no
// duplicates, no entries from other versions. Run under -race in CI.
func TestCursorPinsEpochUnderChurn(t *testing.T) {
	ctx := context.Background()
	db, scenes := seedSnapshotDB(t, 8, 120)
	setRetention(db, 4096) // churn must not evict the pinned epoch
	query := scenes[11]

	// The reference: the full ranking of the pinned version.
	sn := db.Snapshot()
	full, err := sn.Query(ctx, NewQuery(query), WithK(0))
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}
	if len(full.Hits) != 120 {
		t.Fatalf("reference has %d hits, want 120", len(full.Hits))
	}

	// Churn: two bulk-writers and one deleter, running for the whole
	// pagination walk.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	g := workload.NewGenerator(workload.Config{Seed: 1234, Vocabulary: 16, Objects: 6})
	churnScene := g.Scene()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				items := []BulkItem{
					{ID: fmt.Sprintf("churn-%d-%d-a", w, i), Image: churnScene},
					{ID: fmt.Sprintf("churn-%d-%d-b", w, i), Image: churnScene},
				}
				if err := db.BulkInsert(ctx, items, 1); err != nil {
					t.Errorf("churn bulk: %v", err)
					return
				}
				for _, it := range items {
					if err := db.Delete(it.ID); err != nil {
						t.Errorf("churn delete: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// Walk the ranking in pages of 7, starting from the pinned snapshot
	// and resuming through DB.Query with cursors only.
	var walked []Hit
	page, err := sn.Query(ctx, NewQuery(query), WithK(7))
	if err != nil {
		t.Fatalf("page 1: %v", err)
	}
	walked = append(walked, page.Hits...)
	for page.NextCursor != "" {
		page, err = db.Query(ctx, NewQuery(query), WithK(7), WithCursor(page.NextCursor))
		if err != nil {
			t.Fatalf("page %d: %v", len(walked)/7+1, err)
		}
		if page.Epoch != sn.Epoch() {
			t.Fatalf("page ran on epoch %d, want pinned %d", page.Epoch, sn.Epoch())
		}
		walked = append(walked, page.Hits...)
		if len(walked) > len(full.Hits) {
			break
		}
	}
	close(stop)
	wg.Wait()

	hitsEqual(t, "paginated walk vs pinned reference", walked, full.Hits)

	// And the iterator: started from a cursor of the pinned version, it
	// must stream the exact remainder of that version's ranking.
	var streamed []Hit
	first, err := sn.Query(ctx, NewQuery(query), WithK(5))
	if err != nil {
		t.Fatalf("iter seed page: %v", err)
	}
	for h, err := range db.QueryIter(ctx, NewQuery(query), WithCursor(first.NextCursor)) {
		if err != nil {
			t.Fatalf("iter: %v", err)
		}
		streamed = append(streamed, h)
	}
	hitsEqual(t, "iterator tail vs pinned reference", streamed, full.Hits[5:])
}

// TestCursorFallbackAfterEviction pins the degraded mode: when the
// cursor's epoch has aged out of the retention ring, pagination falls
// back to the current version — pages may shift, but a result already
// delivered can never reappear.
func TestCursorFallbackAfterEviction(t *testing.T) {
	ctx := context.Background()
	db, scenes := seedSnapshotDB(t, 4, 30)
	setRetention(db, 1)
	query := scenes[4]

	page1, err := db.Query(ctx, NewQuery(query), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	// Age the epoch out of the ring.
	g := workload.NewGenerator(workload.Config{Seed: 77, Vocabulary: 16, Objects: 6})
	for i := 0; i < 5; i++ {
		if err := db.Insert(fmt.Sprintf("late%d", i), "", g.Scene()); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool, len(page1.Hits))
	for _, h := range page1.Hits {
		seen[h.ID] = true
	}
	page2, err := db.Query(ctx, NewQuery(query), WithK(1000), WithCursor(page1.NextCursor))
	if err != nil {
		t.Fatal(err)
	}
	if page2.Epoch == page1.Epoch {
		t.Fatalf("evicted epoch %d still served", page1.Epoch)
	}
	for _, h := range page2.Hits {
		if seen[h.ID] {
			t.Fatalf("result %s delivered twice across the fallback", h.ID)
		}
	}
}

// TestQueryIterCancelNoLeak pins iterator hygiene: cancelling the
// context mid-stream stops the sequence promptly with a context error,
// and no scoring goroutine outlives the iteration.
func TestQueryIterCancelNoLeak(t *testing.T) {
	db, scenes := seedSnapshotDB(t, 4, 600)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	yielded := 0
	var sawErr error
	for h, err := range db.QueryIter(ctx, NewQuery(scenes[2]), WithParallelism(4)) {
		if err != nil {
			sawErr = err
			break
		}
		_ = h
		yielded++
		if yielded == 10 {
			cancel()
		}
		if yielded > 2*iterBatch {
			t.Fatalf("iterator kept streaming after cancel: %d hits", yielded)
		}
	}
	cancel()
	if sawErr == nil {
		t.Fatal("cancelled iteration ended without an error")
	}
	if yielded > iterBatch {
		t.Fatalf("iterator delivered %d hits after a cancel at 10", yielded)
	}

	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before: all scoring workers must wind down; allow the runtime a moment.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotQueryIterConsistent pins Snapshot.QueryIter: the stream
// equals the one-shot ranking of the same pinned version even when the
// store mutates between batches (forced by a tiny K so multiple execute
// rounds happen).
func TestSnapshotQueryIterConsistent(t *testing.T) {
	ctx := context.Background()
	db, scenes := seedSnapshotDB(t, 4, 50)
	sn := db.Snapshot()
	full, err := sn.Query(ctx, NewQuery(scenes[9]), WithK(0))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate between pinning and iterating.
	if err := db.Delete("img0000"); err != nil {
		t.Fatal(err)
	}
	var streamed []Hit
	for h, err := range sn.QueryIter(ctx, NewQuery(scenes[9])) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, h)
	}
	hitsEqual(t, "snapshot iterator vs one-shot", streamed, full.Hits)
}

// setRetention sets how many versions db keeps resolvable for cursor
// re-pinning; the ring trims to it on the next publish.
func setRetention(db *DB, n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.retain = n
}

// TestSnapshotRetentionBounds pins the ring arithmetic: the ring never
// holds more than the configured number of versions and shrinking it
// takes effect at the next publish.
func TestSnapshotRetentionBounds(t *testing.T) {
	db := New()
	setRetention(db, 3)
	g := workload.NewGenerator(workload.Config{Seed: 8, Vocabulary: 8, Objects: 4})
	for i := 0; i < 10; i++ {
		if err := db.Insert(fmt.Sprintf("r%d", i), "", g.Scene()); err != nil {
			t.Fatal(err)
		}
	}
	h := db.history.Load()
	if len(h.snaps) > 3 {
		t.Fatalf("ring holds %d versions, want <= 3", len(h.snaps))
	}
	cur := db.Epoch()
	if db.findEpoch(cur) == nil {
		t.Fatal("current epoch not resolvable")
	}
	if db.findEpoch(cur-2) == nil {
		t.Fatal("epoch within retention not resolvable")
	}
	if db.findEpoch(cur-5) != nil {
		t.Fatal("epoch beyond retention still resolvable")
	}
	setRetention(db, 1)
	if err := db.Insert("shrink", "", g.Scene()); err != nil {
		t.Fatal(err)
	}
	if h := db.history.Load(); len(h.snaps) > 1 {
		t.Fatalf("shrink did not trim the ring: %d versions", len(h.snaps))
	}
}
