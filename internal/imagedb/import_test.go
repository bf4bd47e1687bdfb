package imagedb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// importScenes builds n deterministic synthetic scenes.
func importScenes(seed int64, n int) []ingest.Scene {
	gen := workload.NewGenerator(workload.Config{Seed: seed, Vocabulary: 16, Objects: 6})
	scenes := make([]ingest.Scene, n)
	for i := range scenes {
		scenes[i] = ingest.Scene{
			ID: fmt.Sprintf("img%05d", i), Name: fmt.Sprintf("scene %d", i), Image: gen.Scene(),
		}
	}
	return scenes
}

// peakReader yields its scenes, then, before it reports the end of the
// stream, samples runtime.NumGoroutine for a while: by then the
// importer's workers are all started and parked on the empty pipeline.
type peakReader struct {
	scenes []ingest.Scene
	peak   int
}

func (r *peakReader) Next() (ingest.Scene, error) {
	if len(r.scenes) > 0 {
		sc := r.scenes[0]
		r.scenes = r.scenes[1:]
		return sc, nil
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		r.peak = max(r.peak, runtime.NumGoroutine())
	}
	return ingest.Scene{}, io.EOF
}

// TestImportKnobsBounded pins that the import knobs cannot exhaust the
// process: a 3-scene import asking for 20 000 workers and 50 million
// scenes per chunk runs at most GOMAXPROCS workers and allocates what
// the stream delivers, not what the knobs promise.
func TestImportKnobsBounded(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := &peakReader{scenes: importScenes(3, 3)}
	baseline := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := s.Import(context.Background(), src, ImportOptions{Parallelism: 20000, ChunkScenes: 50_000_000})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Images != 3 || s.Len() != 3 {
		t.Fatalf("imported %+v, store holds %d, want 3", st, s.Len())
	}
	if limit := baseline + runtime.GOMAXPROCS(0) + 8; src.peak > limit {
		t.Fatalf("peak %d goroutines during the import, want <= %d (baseline %d + GOMAXPROCS %d + 8)",
			src.peak, limit, baseline, runtime.GOMAXPROCS(0))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("import of 3 scenes allocated %d MiB, want < 64", alloc>>20)
	}
}

func TestImportBasic(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	scenes := importScenes(171, 500)
	var progressed int
	stats, err := s.Import(context.Background(), ingest.FromItems(scenes), ImportOptions{
		ChunkScenes: 64,
		Progress:    func(ImportStats) { progressed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	wantChunks := uint64((500 + 63) / 64)
	if stats.Chunks != wantChunks || stats.Images != 500 || stats.Bytes == 0 || stats.LSN == 0 {
		t.Fatalf("stats = %+v, want %d chunks / 500 images", stats, wantChunks)
	}
	if progressed != int(wantChunks) {
		t.Fatalf("progress called %d times, want %d", progressed, wantChunks)
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	// The cumulative tally matches the single run and is carried on
	// StoreStats for /healthz.
	if got := s.StoreStats().Import; got.Chunks != wantChunks || got.Images != 500 {
		t.Fatalf("store tally = %+v", got)
	}
	if e, ok := s.Get("img00321"); !ok || e.Name != "scene 321" {
		t.Fatalf("Get img00321 = %+v, %v", e, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The chunks are ordinary WAL records: a reopen replays them.
	s, err = OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 500 {
		t.Fatalf("after reopen Len = %d", s.Len())
	}
}

// searchJSON renders one canonical ranked search over the whole store —
// the byte-identity yardstick the resume test compares.
func searchJSON(t *testing.T, s *Store, seed int64) string {
	t.Helper()
	gen := workload.NewGenerator(workload.Config{Seed: seed, Vocabulary: 16, Objects: 6})
	img := gen.SubsetQuery(gen.Scene(), 4)
	page, err := s.Query(context.Background(), NewQuery(img), WithK(25))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(struct {
		Hits  []Hit
		Total int
	}{page.Hits, page.Total})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestImportCrashResume(t *testing.T) {
	const n = 600
	scenes := importScenes(172, n)
	rng := rand.New(rand.NewSource(97))

	// Control: one uninterrupted import.
	control, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	if _, err := control.Import(context.Background(), ingest.FromItems(scenes), ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	wantJSON := searchJSON(t, control, 172)

	for round := 0; round < 5; round++ {
		// Randomised chunk boundaries: resume must work at any chunking, as
		// long as the re-run uses the same one. The bounds keep the total
		// chunk count well above stopAfter plus the pipeline depth, so a
		// cancellation can never race the whole import to completion.
		opts := ImportOptions{ChunkScenes: 16 + rng.Intn(40), Parallelism: 1 + rng.Intn(2)}
		stopAfter := 1 + rng.Intn(3)
		// The last round is deterministic: a cancel raised from Progress
		// after chunk 1 must stop the committer before chunk 2, however the
		// reader's and worker's selects fall (with the chunks already
		// converted and queued, they used to commit regardless).
		exact := round == 4
		if exact {
			opts, stopAfter = ImportOptions{ChunkScenes: 50, Parallelism: 1}, 1
		}

		dir := t.TempDir()
		s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		// Interrupt mid-import: cancel after a few committed chunks, then
		// close the store — the moral equivalent of a crash, with the
		// committed chunks durable in the WAL.
		ctx, cancel := context.WithCancel(context.Background())
		interrupted := opts
		interrupted.Progress = func(st ImportStats) {
			if st.Chunks >= uint64(stopAfter) {
				cancel()
			}
		}
		if _, err := s.Import(ctx, ingest.FromItems(scenes), interrupted); err == nil {
			t.Fatalf("round %d: interrupted import reported no error", round)
		}
		cancel()
		partial := s.Len()
		if partial == 0 || partial == n {
			t.Fatalf("round %d: partial Len = %d, want a genuine interruption", round, partial)
		}
		if exact && partial != stopAfter*opts.ChunkScenes {
			t.Fatalf("round %d: partial Len = %d, want exactly %d chunk(s): a chunk committed after the cancel", round, partial, stopAfter)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Re-run the identical import against the reopened store.
		s, err = OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.Import(context.Background(), ingest.FromItems(scenes), opts)
		if err != nil {
			t.Fatalf("round %d: resume: %v", round, err)
		}
		if stats.ResumedChunks == 0 {
			t.Fatalf("round %d: resume skipped no chunks (stats %+v)", round, stats)
		}
		if got := s.Len(); got != n {
			t.Fatalf("round %d: after resume Len = %d, want %d (no missing, no duplicated)", round, got, n)
		}
		if stats.Images+stats.ResumedImages != n {
			t.Fatalf("round %d: images %d + resumed %d != %d", round, stats.Images, stats.ResumedImages, n)
		}
		if got := searchJSON(t, s, 172); got != wantJSON {
			t.Fatalf("round %d: resumed store ranks differently\n got %s\nwant %s", round, got, wantJSON)
		}
		s.Close()
	}
}

func TestImportResumeAfterCheckpointPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	scenes := importScenes(173, 200)
	opts := ImportOptions{ChunkScenes: 32}
	if _, err := s.Import(context.Background(), ingest.FromItems(scenes), opts); err != nil {
		t.Fatal(err)
	}
	// Checkpoint prunes the WAL: the OpImport records (and their keys) are
	// gone from the log, so a reopened store cannot recover them.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The all-ids-present fallback still classifies every chunk as durable.
	stats, err := s.Import(context.Background(), ingest.FromItems(scenes), opts)
	if err != nil {
		t.Fatalf("re-import after checkpoint: %v", err)
	}
	if stats.Chunks != 0 || stats.ResumedImages != 200 {
		t.Fatalf("stats = %+v, want everything resumed", stats)
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestImportCollisions(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scenes := importScenes(174, 60)
	// A foreign write occupying one id inside a chunk: neither "fresh" nor
	// "fully durable" — the import must refuse rather than guess.
	if err := s.Insert(scenes[40].ID, "squatter", storeImage(1)); err != nil {
		t.Fatal(err)
	}
	_, err = s.Import(context.Background(), ingest.FromItems(scenes), ImportOptions{ChunkScenes: 32})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("partial collision: err = %v, want ErrDuplicate", err)
	}
	// With NoResume any collision is an error outright.
	_, err = s.Import(context.Background(), ingest.FromItems(scenes[:41]), ImportOptions{ChunkScenes: 64, NoResume: true})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("NoResume collision: err = %v, want ErrDuplicate", err)
	}
}

func TestImportReplicaRefused(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Import(context.Background(), ingest.FromItems(importScenes(175, 3)), ImportOptions{})
	if !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("err = %v, want ErrReadOnlyReplica", err)
	}
}

func TestImportSourceErrorAborts(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scenes := importScenes(176, 100)
	boom := errors.New("stream broke")
	i := 0
	src := ingest.FromSeq(func(yield func(ingest.Scene, error) bool) {
		for ; i < len(scenes); i++ {
			if i == 70 {
				yield(ingest.Scene{}, boom)
				return
			}
			if !yield(scenes[i], nil) {
				return
			}
		}
	})
	_, err = s.Import(context.Background(), src, ImportOptions{ChunkScenes: 16})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source error", err)
	}
	// Chunks committed before the failure stay durable; the count is a
	// multiple of the chunk bound below the failure point.
	if got := s.Len(); got == 0 || got%16 != 0 || got > 70 {
		t.Fatalf("partial Len = %d", got)
	}
}

func TestOversizedBulkInsertRoutesChunked(t *testing.T) {
	prev := bulkChunkThreshold
	bulkChunkThreshold = 4 << 10
	defer func() { bulkChunkThreshold = prev }()

	s, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	scenes := importScenes(177, 120)
	items := make([]BulkItem, len(scenes))
	for i, sc := range scenes {
		items[i] = BulkItem{ID: sc.ID, Name: sc.Name, Image: sc.Image}
	}
	if err := s.BulkInsert(context.Background(), items, 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(items) {
		t.Fatalf("Len = %d", s.Len())
	}
	// The batch landed as several import chunk records, not one frame.
	if st := s.StoreStats().Import; st.Chunks < 2 || st.Images != uint64(len(items)) {
		t.Fatalf("import tally = %+v, want the batch chunked", st)
	}
	// And a duplicate batch still fails loudly (resume only skips chunks
	// this exact import already committed — ids were inserted above via a
	// different chunking, so the partial-presence check trips).
	err = s.BulkInsert(context.Background(), items[:50], 0)
	if err != nil && !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate oversized bulk: %v", err)
	}
}

func TestChunkKeyDeterministic(t *testing.T) {
	scenes := importScenes(178, 3)
	items := make([]BulkItem, len(scenes))
	for i, sc := range scenes {
		items[i] = BulkItem{ID: sc.ID, Name: sc.Name, Image: sc.Image}
	}
	k1 := chunkKey(0, items)
	k2 := chunkKey(0, items)
	if k1 != k2 {
		t.Fatalf("same chunk, different keys: %s vs %s", k1, k2)
	}
	if chunkKey(1, items) == k1 {
		t.Fatal("chunk index not part of the key")
	}
	mutated := make([]BulkItem, len(items))
	copy(mutated, items)
	mutated[1].Name += "x"
	if chunkKey(0, mutated) == k1 {
		t.Fatal("scene content not part of the key")
	}
	if !reflect.DeepEqual(items, append([]BulkItem(nil), items...)) {
		t.Fatal("chunkKey mutated its input")
	}
}
