package imagedb

import (
	"context"
	"fmt"
	"testing"

	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// BenchmarkReopenTail is the in-process twin of the harness's crash
// drill (restart_s): a store that imported 20 000 8-object scenes and
// then took 2 400 single-record writes — 70% inserts, 30% deletes, the
// write_churn mix — is reopened from its WAL alone (no checkpoint fires
// at this size), so every iteration is one full recovery: decode the
// log, re-prepare and apply the import chunks, then the 2 400-record
// tail. EXPERIMENTS.md E21 records parent vs change.
func BenchmarkReopenTail(b *testing.B) {
	const scenes, writes = 20000, 2400
	gen := workload.NewGenerator(workload.Config{Seed: 1, Width: 100, Height: 100, Objects: 8, Vocabulary: 64})
	corpus := make([]ingest.Scene, scenes)
	for i := range corpus {
		corpus[i] = ingest.Scene{ID: fmt.Sprintf("s%07d", i), Image: gen.Scene()}
	}
	dir := b.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncNever, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Import(context.Background(), ingest.FromItems(corpus), ImportOptions{}); err != nil {
		b.Fatal(err)
	}
	inserted, deleted := 0, 0
	for i := 0; i < writes; i++ {
		if i%10 < 3 && deleted < inserted {
			err = s.Delete(fmt.Sprintf("w%07d", deleted))
			deleted++
		} else {
			err = s.Insert(fmt.Sprintf("w%07d", inserted), "", gen.Scene())
			inserted++
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	want := s.Len()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenStore(dir, StoreOptions{CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != want {
			b.Fatalf("reopened %d scenes, want %d", s.Len(), want)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
