package imagedb

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bestring/internal/core"
	"bestring/internal/wal"
)

// collectDurable drains a primary's WAL through its durable horizon.
func collectDurable(t *testing.T, s *DB) []wal.Record {
	t.Helper()
	return collectDurableAfter(t, s, 0)
}

// collectDurableAfter drains the records after afterLSN — what a
// follower that has applied afterLSN still needs.
func collectDurableAfter(t *testing.T, s *DB, afterLSN uint64) []wal.Record {
	t.Helper()
	tl := s.TailWAL(afterLSN)
	defer tl.Close()
	durable := s.DurableLSN()
	var recs []wal.Record
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for tl.NextLSN() <= durable {
		rec, err := tl.Next(ctx)
		if err != nil {
			t.Fatalf("tail: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// applyFramed hands recs to a follower the way the replication stream
// does: each record in its wire frame.
func applyFramed(t *testing.T, follower *DB, recs []wal.Record) error {
	t.Helper()
	frames := make([][]byte, len(recs))
	for i := range recs {
		frame, err := wal.EncodeFrame(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	return follower.ApplyReplicatedFrames(recs, frames)
}

func TestReplicaRejectsLocalMutations(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert("a", "", storeImage(1)); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Insert on replica = %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Delete on replica = %v", err)
	}
	if err := s.InsertObject("a", core.Object{Label: "X", Box: core.NewRect(0, 0, 1, 1)}); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("InsertObject on replica = %v", err)
	}
	if err := s.DeleteObject("a", "X"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("DeleteObject on replica = %v", err)
	}
	if err := s.BulkInsert(context.Background(), []BulkItem{{ID: "a", Image: storeImage(1)}}, 0); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("BulkInsert on replica = %v", err)
	}
	if !s.Replica() || s.StoreID() == "" {
		t.Fatalf("replica=%v id=%q", s.Replica(), s.StoreID())
	}
}

func TestApplyReplicatedFramesMirrorsPrimary(t *testing.T) {
	primary, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 6; i++ {
		if err := primary.Insert(fmt.Sprintf("img%d", i), "n", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Delete("img3"); err != nil {
		t.Fatal(err)
	}
	if err := primary.InsertObject("img0", core.Object{Label: "C", Box: core.NewRect(5, 5, 6, 6)}); err != nil {
		t.Fatal(err)
	}
	if err := primary.BulkInsert(context.Background(),
		[]BulkItem{{ID: "bulk0", Image: storeImage(7)}, {ID: "bulk1", Image: storeImage(8)}}, 0); err != nil {
		t.Fatal(err)
	}
	recs := collectDurable(t, primary)
	if len(recs) == 0 {
		t.Fatal("no durable records on primary")
	}

	follower, err := OpenStore(t.TempDir(), StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	// Apply in two batches, as a streaming follower would.
	half := len(recs) / 2
	if err := applyFramed(t, follower, recs[:half]); err != nil {
		t.Fatal(err)
	}
	if err := applyFramed(t, follower, recs[half:]); err != nil {
		t.Fatal(err)
	}
	if got, want := follower.AppliedLSN(), primary.AppliedLSN(); got != want {
		t.Fatalf("follower applied=%d, primary=%d", got, want)
	}
	if follower.VisibleLSN() != follower.AppliedLSN() {
		t.Fatalf("visible=%d applied=%d", follower.VisibleLSN(), follower.AppliedLSN())
	}
	// The follower serves the same state: identical snapshot bytes.
	want := saveBytes(t, primary.Save)
	got := saveBytes(t, follower.Save)
	if string(got) != string(want) {
		t.Fatalf("follower state diverged from primary:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// A replayed LSN is rejected (no duplicates)...
	if err := applyFramed(t, follower, recs[half:]); err == nil {
		t.Fatal("re-applied batch accepted")
	}
	// ...and a gap is rejected too: continuity is enforced at the WAL.
	gap := []wal.Record{{LSN: follower.AppliedLSN() + 2, Op: wal.OpDelete, ID: "img0"}}
	if err := applyFramed(t, follower, gap); err == nil {
		t.Fatal("gapped batch accepted")
	}
}

func TestApplyReplicatedFramesAllOrNothing(t *testing.T) {
	follower, err := OpenStore(t.TempDir(), StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	img := storeImage(1)
	good := wal.Record{LSN: 1, Op: wal.OpInsert, ID: "a", Image: &img}
	bad := wal.Record{LSN: 2, Op: wal.OpDelete, ID: "missing"}
	if err := applyFramed(t, follower, []wal.Record{good, bad}); err == nil {
		t.Fatal("batch with invalid record accepted")
	}
	// Nothing applied, nothing logged: the store is untouched.
	if follower.Len() != 0 || follower.AppliedLSN() != 0 || follower.DurableLSN() != 0 {
		t.Fatalf("partial apply: len=%d applied=%d durable=%d",
			follower.Len(), follower.AppliedLSN(), follower.DurableLSN())
	}
	// The same first record still applies cleanly afterwards.
	if err := applyFramed(t, follower, []wal.Record{good}); err != nil {
		t.Fatal(err)
	}
	if follower.Len() != 1 || follower.AppliedLSN() != 1 {
		t.Fatalf("len=%d applied=%d", follower.Len(), follower.AppliedLSN())
	}
}

func TestReplicaCrashRestartResumes(t *testing.T) {
	primary, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 10; i++ {
		if err := primary.Insert(fmt.Sprintf("img%d", i), "n", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs := collectDurable(t, primary)

	dir := t.TempDir()
	follower, err := OpenStore(dir, StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyFramed(t, follower, recs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil { // "crash" after a clean batch
		t.Fatal(err)
	}
	follower, err = OpenStore(dir, StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if got := follower.AppliedLSN(); got != recs[3].LSN {
		t.Fatalf("resumed applied=%d, want %d", got, recs[3].LSN)
	}
	// Resume exactly where the local log ends: no gaps, no duplicates.
	if err := applyFramed(t, follower, recs[4:]); err != nil {
		t.Fatal(err)
	}
	if saveA, saveB := saveBytes(t, primary.Save), saveBytes(t, follower.Save); string(saveA) != string(saveB) {
		t.Fatal("resumed follower state diverged from primary")
	}
}

func TestWaitVisible(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert("a", "", storeImage(1)); err != nil {
		t.Fatal(err)
	}
	// Already-visible LSNs return immediately.
	if err := s.WaitVisible(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// A future LSN blocks until the write publishes.
	done := make(chan error, 1)
	go func() { done <- s.WaitVisible(context.Background(), 2) }()
	select {
	case err := <-done:
		t.Fatalf("WaitVisible(2) returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.Insert("b", "", storeImage(2)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitVisible(2) did not wake after the write published")
	}
	// Context expiry unblocks a wait that can never be satisfied.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitVisible(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitVisible(99) = %v", err)
	}
}

func TestPruneFloorRetainsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync:           FsyncAlways,
		SegmentBytes:    512,
		CheckpointBytes: -1, // manual checkpoints only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Insert(fmt.Sprintf("img%d", i), "n", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A follower acked only through LSN 5: segments past it must survive
	// the checkpoint.
	s.SetPruneFloor(func() uint64 { return 5 })
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if oldest := s.OldestLSN(); oldest > 6 {
		t.Fatalf("oldest=%d after floor-5 checkpoint: follower backlog pruned", oldest)
	}
	tl := s.TailWAL(5)
	defer tl.Close()
	rec, err := tl.Next(context.Background())
	if err != nil || rec.LSN != 6 {
		t.Fatalf("backlog tail: rec=%+v err=%v", rec, err)
	}
	// Floor released (follower caught up): the next checkpoint prunes.
	s.SetPruneFloor(nil)
	if err := s.Insert("extra", "n", storeImage(99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if oldest := s.OldestLSN(); oldest <= 6 {
		t.Fatalf("oldest=%d after unconstrained checkpoint: nothing pruned", oldest)
	}
	if s.StoreStats().WAL.OldestLSN != s.OldestLSN() {
		t.Fatal("stats oldest disagrees with OldestLSN")
	}
}
