package imagedb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bestring/internal/core"
)

// storeImage builds a small valid image whose shape varies with n.
func storeImage(n int) core.Image {
	return core.NewImage(10, 10,
		core.Object{Label: "A", Box: core.NewRect(0, 0, 1, 1)},
		core.Object{Label: fmt.Sprintf("B%d", n%7), Box: core.NewRect(2+n%3, 2, 4+n%3, 4)},
	)
}

// saveBytes renders a DB-like saver to its canonical snapshot bytes.
func saveBytes(t *testing.T, save func(w io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Save writes the database's current version in the checkpoint format.
// It exists only under test: byte-identity tests compare whole states
// through it, and it exercises the same writer a checkpoint runs.
func (db *DB) Save(w io.Writer) error {
	return saveEntries(w, db.current.Load().orderedEntries())
}

// loadBytes reads checkpoint bytes back through the store's reader.
func loadBytes(t *testing.T, data []byte) (*DB, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), snapshotName(0))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return loadSnapshot(path)
}

// TestSnapshotFileOpensAsStore pins the migration path for a database
// kept as one snapshot file: copied into an empty directory under the
// name of a checkpoint at LSN 0, it opens as a durable store holding the
// same entries, takes writes that survive a reopen, and is reported by
// InspectStore.
func TestSnapshotFileOpensAsStore(t *testing.T) {
	src, _ := seedDB(t, 6)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(0)), saveBytes(t, src.Save), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := saveBytes(t, s.Save), saveBytes(t, src.Save); !bytes.Equal(got, want) {
		t.Fatalf("opened store holds\n%s\nwant\n%s", got, want)
	}
	if err := s.Insert("after", "n", storeImage(3)); err != nil {
		t.Fatal(err)
	}
	if lsn := s.AppliedLSN(); lsn != 1 {
		t.Fatalf("first write on the migrated store got lsn %d, want 1", lsn)
	}
	want := saveBytes(t, s.Save)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := saveBytes(t, s2.Save); !bytes.Equal(got, want) || s2.Len() != 7 {
		t.Fatalf("reopened store has %d entries, state differs: %v", s2.Len(), !bytes.Equal(got, want))
	}
	ins, err := InspectStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Snapshots) != 1 || ins.Snapshots[0].File != snapshotName(0) ||
		ins.Snapshots[0].Entries != 6 || ins.Snapshots[0].Err != "" || ins.Replayable != 1 {
		t.Fatalf("inspection=%+v", ins)
	}
}

func TestStoreOpenMutateReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Insert(fmt.Sprintf("img%d", i), "n", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("img3"); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertObject("img0", core.Object{Label: "C", Box: core.NewRect(5, 5, 6, 6)}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteObject("img1", "A"); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, s.Save)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := saveBytes(t, s2.Save); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\n got: %s\nwant: %s", got, want)
	}
	if s2.Len() != 4 {
		t.Fatalf("Len=%d, want 4", s2.Len())
	}
	// The query surface works on the recovered store.
	page, err := s2.Query(context.Background(), NewQuery(storeImage(0)), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) != 2 {
		t.Fatalf("query hits=%d, want 2", len(page.Hits))
	}
	// Mutations validated against recovered state.
	if err := s2.Insert("img0", "", storeImage(0)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

func TestStoreReopenAcrossFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, StoreOptions{Fsync: pol, FsyncInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Insert("a", "", storeImage(1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil { // clean close flushes under every policy
				t.Fatal(err)
			}
			s2, err := OpenStore(dir, StoreOptions{Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Len() != 1 {
				t.Fatalf("Len=%d after clean close under %s", s2.Len(), pol)
			}
		})
	}
}

// storeFiles lists snapshot and segment file names in dir.
func storeFiles(t *testing.T, dir string) (snaps, segs []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), snapshotPrefix):
			snaps = append(snaps, e.Name())
		case strings.HasPrefix(e.Name(), "wal-"):
			segs = append(segs, e.Name())
		}
	}
	return snaps, segs
}

func TestStoreCheckpointPrunesLogAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync: FsyncNever, SegmentBytes: 512, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Insert(fmt.Sprintf("img%02d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		if err := s.Insert(fmt.Sprintf("img%02d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, segs := storeFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots=%v, want exactly the newest", snaps)
	}
	if len(segs) != 1 {
		t.Fatalf("segments=%v, want only the empty active one", segs)
	}
	st := s.StoreStats()
	if st.CheckpointLSN != 40 || st.LastLSN != 40 || st.Checkpoints != 2 {
		t.Fatalf("stats=%+v", st)
	}
	// A third checkpoint with nothing new is a no-op.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.StoreStats().Checkpoints; got != 2 {
		t.Fatalf("no-op checkpoint ran anyway: %d", got)
	}
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
		t.Fatal("state after checkpointed recovery differs")
	}
	// Loading the snapshot is recovery, not a commit of the reopened store.
	if c := s2.StoreStats().Commit; c.Groups != 0 || c.Mutations != 0 || c.Largest != 0 {
		t.Fatalf("reopened store's commit stats = %+v, want zero", c)
	}
}

func TestStoreAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncNever, CheckpointBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Insert(fmt.Sprintf("img%02d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.StoreStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint; stats=%+v", s.StoreStats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.StoreStats().CheckpointErr; err != "" {
		t.Fatalf("background checkpoint error: %s", err)
	}
}

func TestStoreBulkAtomicThroughWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("seedimg", "", storeImage(0)); err != nil {
		t.Fatal(err)
	}
	before := s.StoreStats().LastLSN

	// A batch with a conversion failure in the middle must change nothing
	// — not the database and not the log.
	bad := []BulkItem{
		{ID: "b0", Image: storeImage(1)},
		{ID: "b1", Image: core.Image{XMax: 4, YMax: 4}}, // no objects: conversion fails
		{ID: "b2", Image: storeImage(2)},
	}
	if err := s.BulkInsert(context.Background(), bad, 0); err == nil {
		t.Fatal("expected bulk failure")
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d after failed bulk, want 1", s.Len())
	}
	if got := s.StoreStats().LastLSN; got != before {
		t.Fatalf("failed bulk reached the WAL: lsn %d -> %d", before, got)
	}
	// A batch colliding with an existing id is rejected pre-log too.
	dup := []BulkItem{{ID: "x", Image: storeImage(3)}, {ID: "seedimg", Image: storeImage(4)}}
	if err := s.BulkInsert(context.Background(), dup, 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if got := s.StoreStats().LastLSN; got != before {
		t.Fatalf("failed bulk reached the WAL: lsn %d -> %d", before, got)
	}

	// A good batch lands as ONE record and replays as one atomic unit.
	good := []BulkItem{{ID: "g0", Image: storeImage(5)}, {ID: "g1", Image: storeImage(6)}}
	if err := s.BulkInsert(context.Background(), good, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.StoreStats().LastLSN; got != before+1 {
		t.Fatalf("bulk batch used %d records, want 1", got-before)
	}
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
		t.Fatal("bulk batch did not replay to the same state")
	}
}

func TestStoreFallsBackToOlderValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Insert(fmt.Sprintf("img%d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("late", "", storeImage(9)); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, s.Save)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a NEWER but unreadable snapshot, as disk damage would leave.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1<<40)), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := saveBytes(t, s2.Save); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery differs from pre-crash state")
	}
}

// TestVolatileEngineSurface pins what the log-dependent methods return
// on a DB with no write-ahead log, and that a volatile DB commits through
// the same commit groups and closes like a durable one.
func TestVolatileEngineSurface(t *testing.T) {
	db := New()
	if err := db.Insert("a", "", storeImage(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkInsert(context.Background(), []BulkItem{{ID: "b", Image: storeImage(1)}}, 0); err != nil {
		t.Fatal(err)
	}
	if db.Durable() || db.Replica() || db.StoreID() != "" {
		t.Fatalf("durable=%v replica=%v id=%q", db.Durable(), db.Replica(), db.StoreID())
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint = %v, want ErrNotDurable", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Sync = %v, want ErrNotDurable", err)
	}
	if tl := db.TailWAL(0); tl != nil {
		t.Fatal("TailWAL returned a tailer without a log")
	}
	if db.DurableLSN() != 0 || db.OldestLSN() != 0 || db.AppliedLSN() != 0 || db.VisibleLSN() != 0 {
		t.Fatalf("LSNs = %d/%d/%d/%d, want all 0", db.DurableLSN(), db.OldestLSN(), db.AppliedLSN(), db.VisibleLSN())
	}
	if err := db.WaitVisible(context.Background(), 0); err != nil {
		t.Fatalf("WaitVisible(0) = %v", err)
	}
	if err := db.WaitVisible(context.Background(), 1); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("WaitVisible(1) = %v, want ErrNotDurable", err)
	}
	st := db.StoreStats()
	if !st.Commit.Enabled || st.Commit.Groups != 2 || st.Commit.Mutations != 2 || st.Commit.Largest != 1 ||
		st.LastLSN != 0 || st.WAL.Segments != 0 || st.Dir != "" {
		t.Fatalf("StoreStats = %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("c", "", storeImage(2)); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Insert after Close = %v, want ErrStoreClosed", err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d after Close", db.Len())
	}
}

func TestStoreClosedRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("a", "", storeImage(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Insert("b", "", storeImage(1)); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("want ErrStoreClosed, got %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("want ErrStoreClosed, got %v", err)
	}
	if err := s.BulkInsert(context.Background(), []BulkItem{{ID: "c", Image: storeImage(2)}}, 0); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("want ErrStoreClosed, got %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("want ErrStoreClosed, got %v", err)
	}
	// Reads keep working after Close.
	if s.Len() != 1 {
		t.Fatalf("Len=%d after close", s.Len())
	}
}

// TestStoreConcurrentMutationsAndQueries exercises the writer lock, the
// WAL appender, the background checkpointer and concurrent readers
// together under -race, then proves the final state recovers exactly.
func TestStoreConcurrentMutationsAndQueries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync: FsyncNever, SegmentBytes: 2048, CheckpointBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				if err := s.Insert(id, "", storeImage(w*perWriter+i)); err != nil {
					t.Errorf("insert %s: %v", id, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := s.Query(context.Background(), NewQuery(storeImage(i)), WithK(3)); err != nil {
				t.Errorf("query: %v", err)
			}
			s.StoreStats()
		}
	}()
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Fatalf("Len=%d, want %d", s.Len(), writers*perWriter)
	}
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
		t.Fatal("concurrent-write state did not recover byte-identically")
	}
}

func TestInspectStoreReportsShape(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Insert(fmt.Sprintf("img%d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("img1"); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkInsert(context.Background(), []BulkItem{{ID: "b", Image: storeImage(5)}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ins, err := InspectStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ins.SnapshotLSN != 3 || ins.LastLSN != 5 || ins.Replayable != 2 {
		t.Fatalf("inspection=%+v", ins)
	}
	if ins.RecordOps["delete"] != 1 || ins.RecordOps["bulk"] != 1 {
		t.Fatalf("record ops=%v", ins.RecordOps)
	}
	if len(ins.Snapshots) != 1 || ins.Snapshots[0].Entries != 3 {
		t.Fatalf("snapshots=%+v", ins.Snapshots)
	}
}

// TestStoreSingleWriterLock pins that a second process (simulated by a
// second OpenStore) cannot write the same directory concurrently, and
// that leftover atomic-write temp litter is swept on open.
func TestStoreSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil ||
		!strings.Contains(err.Error(), "locked") {
		t.Fatalf("concurrent open: err=%v, want lock failure", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: a stranded snapshot temp file.
	litter := filepath.Join(dir, ".snapshot-0000000000000009.json.tmp-4242")
	if err := os.WriteFile(litter, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Fatalf("temp litter survived open: %v", err)
	}
}

// damageTailRecord flips a byte in the payload of the n-th (1-based)
// record of the final WAL segment, leaving later records in place.
func damageTailRecord(t *testing.T, dir string, n int) {
	t.Helper()
	seg := filepath.Join(dir, finalSegment(t, dir))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < n-1; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:off+4]))
	}
	data[off+8+5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTailToleranceFollowsWriterPolicy pins that the torn-tail rule
// is decided by the policy that WROTE the log (the wal's durable
// marker), not the policy the reopening process happens to pass: a
// never-written tail may legitimately hold out-of-order crash artefacts
// and is truncated at the damage, while an always-written tail with the
// same damage is fsynced history — bit rot — and must refuse, even when
// reopened with a relaxed policy.
func TestStoreTailToleranceFollowsWriterPolicy(t *testing.T) {
	write := func(pol FsyncPolicy) string {
		dir := t.TempDir()
		s, err := OpenStore(dir, StoreOptions{Fsync: pol})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.Insert(fmt.Sprintf("img%d", i), "", storeImage(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		damageTailRecord(t, dir, 4) // record 5 still follows the damage
		return dir
	}

	// Written under never: reopening — even strictly configured — ends
	// the log at the damage and serves the acknowledged-loss prefix.
	dir := write(FsyncNever)
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("never-written tail refused: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len=%d, want 3 (records 4-5 dropped with the damaged tail)", s.Len())
	}
	s.Close()

	// Written under always: the same damage is corruption of fsynced
	// records, and no reopening policy may silently truncate it.
	dir = write(FsyncAlways)
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		if _, err := OpenStore(dir, StoreOptions{Fsync: pol}); err == nil {
			t.Fatalf("always-written damaged tail accepted under reopen policy %s", pol)
		}
	}
}
