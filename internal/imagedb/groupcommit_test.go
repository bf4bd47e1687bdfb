package imagedb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bestring/internal/core"
)

// holdCommitter parks the store's group committer before its next drain
// and returns the release function, so a test can assemble a
// deterministic commit group in the queue. Must be called before any
// mutation is in flight.
func holdCommitter(t *testing.T, s *DB) func() {
	t.Helper()
	h := make(chan struct{})
	s.batcher.mu.Lock()
	s.batcher.hold = h
	s.batcher.mu.Unlock()
	return func() {
		s.batcher.mu.Lock()
		s.batcher.hold = nil
		s.batcher.mu.Unlock()
		close(h)
	}
}

// waitQueued blocks until the commit queue holds n requests.
func waitQueued(t *testing.T, s *DB, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.batcher.queued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("commit queue stuck at %d of %d requests", s.batcher.queued(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitCoalesces pins the core promise: K concurrent mutations
// drained together commit as ONE WAL frame, ONE group and ONE published
// version — not K of each.
func TestGroupCommitCoalesces(t *testing.T) {
	const k = 5
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync: FsyncAlways, CheckpointBytes: -1, CommitBatch: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Epoch()
	lsn0 := s.StoreStats().LastLSN

	release := holdCommitter(t, s)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Insert(fmt.Sprintf("img%d", i), "n", storeImage(i))
		}(i)
	}
	waitQueued(t, s, k)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	st := s.StoreStats()
	if st.Commit.Groups != 1 || st.Commit.Mutations != k || st.Commit.Largest != k {
		t.Fatalf("commit stats = %+v, want 1 group of %d mutations", st.Commit, k)
	}
	if got := s.Epoch() - epoch0; got != 1 {
		t.Fatalf("published %d versions for one commit group, want 1", got)
	}
	if got := st.LastLSN - lsn0; got != 1 {
		t.Fatalf("appended %d WAL records for one commit group, want 1", got)
	}
	if s.Len() != k {
		t.Fatalf("Len = %d, want %d", s.Len(), k)
	}
	want := saveBytes(t, s.Save)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The frame on disk is one OpGroup record, and it replays whole.
	ins, err := InspectStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Records != 1 || ins.RecordOps["group"] != 1 {
		t.Fatalf("log holds %d records (%v), want one group record", ins.Records, ins.RecordOps)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := saveBytes(t, s2.Save); !bytes.Equal(got, want) {
		t.Fatal("recovered state is not byte-identical to the pre-close state")
	}

	// A solo sequential writer is a group of one, and a group of one is
	// written as the plain record it always was: four inserts are four
	// LSNs, four plain insert frames, four groups of size one.
	soloDir := t.TempDir()
	solo, err := OpenStore(soloDir, StoreOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := solo.Insert(fmt.Sprintf("img%d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	st = solo.StoreStats()
	if !st.Commit.Enabled || st.Commit.Groups != 4 || st.Commit.Largest != 1 || st.LastLSN != 4 {
		t.Fatalf("solo writer: commit stats = %+v, LastLSN = %d, want 4 groups of 1 and one record per mutation", st.Commit, st.LastLSN)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
	if ins, err = InspectStore(soloDir); err != nil {
		t.Fatal(err)
	}
	if ins.Records != 4 || ins.RecordOps["insert"] != 4 {
		t.Fatalf("solo writer: log holds %d records (%v), want four plain insert records", ins.Records, ins.RecordOps)
	}
}

// TestGroupCommitFailureIsolation pins the isolation invariant: a
// mutation that fails validation against the group's transaction state
// fails only its own caller — the rest of the group commits, in one
// version, and recovery agrees.
func TestGroupCommitFailureIsolation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync: FsyncAlways, CheckpointBytes: -1, CommitBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", "", storeImage(0)); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Epoch()

	// One group: two inserts of the same fresh id (one must lose), two
	// deletes of the same existing id (one must lose), plus two clean
	// inserts that must be untouched by their neighbours' failures. The
	// duplicate insert and second delete pass the lock-free prechecks —
	// the conflict only exists inside the batch, which is exactly the
	// case the shared-txn validation is for.
	release := holdCommitter(t, s)
	var wg sync.WaitGroup
	var bothErrs, delErrs [2]error
	var f1Err, f2Err error
	run := func(fn func()) { wg.Add(1); go func() { defer wg.Done(); fn() }() }
	run(func() { f1Err = s.Insert("f1", "", storeImage(1)) })
	run(func() { f2Err = s.Insert("f2", "", storeImage(2)) })
	for i := 0; i < 2; i++ {
		i := i
		run(func() { bothErrs[i] = s.Insert("both", "", storeImage(3)) })
		run(func() { delErrs[i] = s.Delete("t") })
	}
	waitQueued(t, s, 6)
	release()
	wg.Wait()

	if f1Err != nil || f2Err != nil {
		t.Fatalf("clean inserts failed alongside rejected neighbours: %v, %v", f1Err, f2Err)
	}
	checkOneLoser := func(what string, errs [2]error, want error) {
		t.Helper()
		ok, lose := 0, 0
		for _, err := range errs {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, want):
				lose++
			default:
				t.Fatalf("%s: unexpected error %v", what, err)
			}
		}
		if ok != 1 || lose != 1 {
			t.Fatalf("%s: got %d successes and %d rejections, want exactly 1 of each (%v)", what, ok, lose, errs)
		}
	}
	checkOneLoser("duplicate insert", bothErrs, ErrDuplicate)
	checkOneLoser("double delete", delErrs, ErrNotFound)

	if got := s.Epoch() - epoch0; got != 1 {
		t.Fatalf("published %d versions for one commit group, want 1", got)
	}
	st := s.StoreStats()
	if st.Commit.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", st.Commit.Rejected)
	}
	for id, want := range map[string]bool{"f1": true, "f2": true, "both": true, "t": false} {
		if s.Has(id) != want {
			t.Fatalf("Has(%q) = %v, want %v", id, !want, want)
		}
	}

	// Recovery replays the group frame (which holds only the accepted
	// mutations) to the identical state.
	want := saveBytes(t, s.Save)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := saveBytes(t, s2.Save); !bytes.Equal(got, want) {
		t.Fatal("recovered state disagrees with the per-caller results")
	}
}

// TestGroupCommitRaceStress drives N goroutines of mixed mutations
// through the batcher under -race and asserts exact final state,
// monotonically increasing epochs, exactly one published version per
// commit group, byte-identical recovery, and zero leaked goroutines
// after Close.
func TestGroupCommitRaceStress(t *testing.T) {
	before := runtime.NumGoroutine()
	const writers, per = 8, 24
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync: FsyncAlways, CheckpointBytes: -1, SegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := s.Epoch()

	// Epoch watcher: versions must only move forward while the committer
	// publishes.
	watcherDone := make(chan struct{})
	stopWatcher := make(chan struct{})
	var epochRegression atomic.Bool
	go func() {
		defer close(watcherDone)
		last := uint64(0)
		for {
			select {
			case <-stopWatcher:
				return
			default:
			}
			e := s.Epoch()
			if e < last {
				epochRegression.Store(true)
				return
			}
			last = e
			runtime.Gosched()
		}
	}()

	// Each writer owns a disjoint id space, so any interleaving of the
	// writers yields the same final entry set — computable by replaying
	// one writer at a time into a mirror.
	script := func(w int, insert func(id string, n int) error,
		del func(id string) error,
		insObj func(id string, o core.Object) error,
		delObj func(id, label string) error,
		bulk func(items []BulkItem) error) error {
		for i := 0; i < per; i++ {
			id := fmt.Sprintf("w%d-%02d", w, i)
			if err := insert(id, w*per+i); err != nil {
				return fmt.Errorf("insert %s: %w", id, err)
			}
			switch i % 4 {
			case 0:
				if err := del(id); err != nil {
					return fmt.Errorf("delete %s: %w", id, err)
				}
			case 1:
				if err := insObj(id, core.Object{Label: "X", Box: core.NewRect(6, 6, 7, 7)}); err != nil {
					return fmt.Errorf("insert object %s: %w", id, err)
				}
			case 2:
				if err := delObj(id, "A"); err != nil {
					return fmt.Errorf("delete object %s: %w", id, err)
				}
			}
		}
		return bulk([]BulkItem{
			{ID: fmt.Sprintf("w%d-bulkA", w), Image: storeImage(w)},
			{ID: fmt.Sprintf("w%d-bulkB", w), Image: storeImage(w + 1)},
		})
	}
	// Requests per writer: per inserts, the i%4 follow-ups, one bulk.
	perWriterReqs := per + (per+3)/4 + (per+2)/4 + (per+1)/4 + 1

	var wg sync.WaitGroup
	werrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = script(w,
				func(id string, n int) error { return s.Insert(id, "n", storeImage(n)) },
				s.Delete,
				s.InsertObject,
				s.DeleteObject,
				func(items []BulkItem) error { return s.BulkInsert(context.Background(), items, 2) },
			)
		}(w)
	}
	wg.Wait()
	close(stopWatcher)
	<-watcherDone
	for w, err := range werrs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if epochRegression.Load() {
		t.Fatal("observed a decreasing epoch during concurrent commits")
	}

	// Exact final state: replay the same scripts sequentially into an
	// in-memory mirror (writers touch disjoint ids, so order between
	// writers cannot matter) and compare entry by entry.
	mirror := New()
	for w := 0; w < writers; w++ {
		err := script(w,
			func(id string, n int) error { return mirror.Insert(id, "n", storeImage(n)) },
			mirror.Delete,
			mirror.InsertObject,
			mirror.DeleteObject,
			func(items []BulkItem) error { return mirror.BulkInsert(context.Background(), items, 2) },
		)
		if err != nil {
			t.Fatalf("mirror writer %d: %v", w, err)
		}
	}
	if s.Len() != mirror.Len() {
		t.Fatalf("Len = %d, want %d", s.Len(), mirror.Len())
	}
	for _, id := range mirror.IDs() {
		want, _ := mirror.Get(id)
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("store is missing %q", id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %q diverged:\n got %+v\nwant %+v", id, got, want)
		}
	}

	// One published version per commit group, and every request was
	// committed through a group.
	st := s.StoreStats()
	if got := uint64(s.Epoch() - epoch0); got != st.Commit.Groups {
		t.Fatalf("epoch advanced %d but %d groups committed — a group published more (or less) than one version", got, st.Commit.Groups)
	}
	if want := uint64(writers * perWriterReqs); st.Commit.Mutations != want {
		t.Fatalf("Mutations = %d, want %d", st.Commit.Mutations, want)
	}
	if st.Commit.Rejected != 0 {
		t.Fatalf("Rejected = %d, want 0 (all ids are disjoint)", st.Commit.Rejected)
	}

	// Byte-identical recovery of the concurrently built state.
	want := saveBytes(t, s.Save)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, s2.Save); !bytes.Equal(got, want) {
		t.Fatal("recovered state is not byte-identical to the pre-close state")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero leaked goroutines after Close (committer, checkpointer, WAL
	// flusher, watcher — everything), modelled on TestQueryIterCancelNoLeak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupCommitCloseDrains checks Close's drain guarantee: every
// mutation accepted into the commit queue before Close resolves is
// committed and acknowledged (no caller left hanging, no accepted write
// lost), and late arrivals get ErrStoreClosed.
func TestGroupCommitCloseDrains(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Insert(fmt.Sprintf("img%02d", i), "", storeImage(i))
		}(i)
	}
	if err := s.Close(); err != nil { // races the inserts on purpose
		t.Fatal(err)
	}
	wg.Wait()

	acked := make(map[string]bool)
	for i, err := range errs {
		id := fmt.Sprintf("img%02d", i)
		switch {
		case err == nil:
			acked[id] = true
		case errors.Is(err, ErrStoreClosed):
		default:
			t.Fatalf("insert %s: %v", id, err)
		}
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(acked) {
		t.Fatalf("recovered %d entries, %d were acknowledged", s2.Len(), len(acked))
	}
	for id := range acked {
		if !s2.Has(id) {
			t.Fatalf("acknowledged insert %s missing after reopen", id)
		}
	}
}
