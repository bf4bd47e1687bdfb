package imagedb

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"bestring/internal/ingest"
	"bestring/internal/wal"
)

// This file is the streaming bulk importer (DESIGN.md section 12). Where
// BulkInsert materialises a whole batch and logs it as one WAL record,
// the importer pulls scenes from an ingest.Reader one at a time, groups
// them into bounded chunks, converts and signs the chunks in a worker
// pool (a fixed-depth channel provides backpressure: a slow disk stalls
// the reader instead of ballooning memory), and commits each chunk as
// its own WAL record — one fsync per policy, one published MVCC version
// — so a 10M-scene corpus imports with bounded memory and its progress
// is observable mid-flight on /healthz and /metrics.
//
// Crash resume: every chunk record carries a deterministic content key
// (a hash of the chunk index and its scenes). Re-running the same import
// against the same source with the same chunk options derives the same
// keys, and chunks whose key is already in the durable log — collected
// during recovery replay — are skipped, not re-applied. Chunks whose WAL
// record a checkpoint has already pruned are caught by a fallback: if
// every id of a chunk is already present, the chunk is durable by
// construction (chunks apply atomically) and is likewise skipped.

// Import tuning defaults.
const (
	// DefaultImportChunkScenes caps scenes per import chunk.
	DefaultImportChunkScenes = 8192
	// DefaultImportChunkBytes is the soft encoded-size budget per chunk —
	// deliberately far under wal.MaxRecordBytes so even wildly
	// object-dense scenes cannot push a chunk record near the frame bound.
	DefaultImportChunkBytes = 8 << 20
)

// ImportOptions tune an Importer.
type ImportOptions struct {
	// ChunkScenes caps the scenes per chunk (0 means
	// DefaultImportChunkScenes). Smaller chunks publish progress sooner;
	// larger chunks amortise per-commit costs better.
	ChunkScenes int
	// ChunkBytes is the soft encoded-size budget per chunk (0 means
	// DefaultImportChunkBytes). A chunk closes when either bound trips.
	ChunkBytes int64
	// Parallelism bounds the conversion workers and the chunk pipeline
	// depth (0 means GOMAXPROCS). Conversion is CPU-bound, so a larger
	// value is capped at GOMAXPROCS.
	Parallelism int
	// NoResume disables the durable-chunk skip: every chunk is imported
	// unconditionally, and any id collision fails the import. Resume
	// requires re-running with the same source and the same chunk options,
	// since both determine the per-chunk content keys.
	NoResume bool
	// Progress, when set, is called after every committed or skipped
	// chunk with the run's stats so far. Called from the importing
	// goroutine with no store locks held; it must not mutate the store.
	Progress func(ImportStats)
}

// ImportStats describes an import — either one run (returned by
// Importer.Run) or the store's cumulative tally (Store.ImportStats,
// served on /healthz and /metrics).
type ImportStats struct {
	// Active is the number of imports currently running (always 0 in a
	// single run's stats).
	Active int `json:"active"`
	// Chunks and Images count committed work; Bytes the WAL bytes those
	// commits appended.
	Chunks uint64 `json:"chunks"`
	Images uint64 `json:"images"`
	Bytes  uint64 `json:"bytes"`
	// ResumedChunks/ResumedImages count chunks skipped because they were
	// already durable from an interrupted earlier run.
	ResumedChunks uint64 `json:"resumedChunks"`
	ResumedImages uint64 `json:"resumedImages"`
	// LSN is the last import chunk's log sequence number.
	LSN uint64 `json:"lsn"`
}

// Importer streams scenes into a Store in chunked, resumable, durable
// batches. Create with Store.NewImporter; one Importer runs one import
// at a time (concurrent Run calls on separate Importers are safe but
// serialise per chunk on the store's writer lock like any mutations).
type Importer struct {
	s    *Store
	opts ImportOptions

	// Run-local stats, owned by the committing goroutine.
	stats ImportStats
}

// NewImporter returns an importer with the given options.
func (s *Store) NewImporter(opts ImportOptions) *Importer {
	if opts.ChunkScenes <= 0 {
		opts.ChunkScenes = DefaultImportChunkScenes
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = DefaultImportChunkBytes
	}
	if procs := runtime.GOMAXPROCS(0); opts.Parallelism <= 0 || opts.Parallelism > procs {
		opts.Parallelism = procs
	}
	return &Importer{s: s, opts: opts}
}

// Import streams scenes from src into the store with the given options —
// shorthand for NewImporter(opts).Run(ctx, src).
func (s *Store) Import(ctx context.Context, src ingest.Reader, opts ImportOptions) (ImportStats, error) {
	return s.NewImporter(opts).Run(ctx, src)
}

// ImportStats returns the store's cumulative import tally for this
// process: chunks/images/bytes committed, chunks skipped by resume, the
// last import LSN, and how many imports are running right now.
func (s *Store) ImportStats() ImportStats {
	s.importMu.Lock()
	defer s.importMu.Unlock()
	t := s.importTally
	t.Active = s.activeImports
	return t
}

// hasImportKey reports whether an import chunk with this content key is
// already durable in this store's history.
func (s *Store) hasImportKey(key string) bool {
	s.importMu.Lock()
	defer s.importMu.Unlock()
	return s.importKeys[key]
}

// noteImportKey records a durable import chunk key.
func (s *Store) noteImportKey(key string) {
	s.importMu.Lock()
	defer s.importMu.Unlock()
	if s.importKeys == nil {
		s.importKeys = make(map[string]bool)
	}
	s.importKeys[key] = true
}

// rawChunk is a chunk as cut by the reader; convChunk the same chunk
// after the worker pool converted and packed it (or decided to skip it).
type rawChunk struct {
	idx   int
	key   string
	items []BulkItem
}

type convChunk struct {
	rawChunk
	mu   *mutation // the prepared OpImport record; nil when skipped
	skip bool      // key already durable; conversion skipped
	err  error
}

// chunkKey derives the deterministic content key of a chunk: a SHA-256
// over the chunk's position and every scene's identity and geometry.
// Length-prefixed strings keep the encoding injective.
func chunkKey(idx int, items []BulkItem) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		io.WriteString(h, s)
	}
	put(uint64(idx))
	for i := range items {
		it := &items[i]
		str(it.ID)
		str(it.Name)
		put(uint64(int64(it.Image.XMax)))
		put(uint64(int64(it.Image.YMax)))
		for _, o := range it.Image.Objects {
			str(o.Label)
			put(uint64(int64(o.Box.X0)))
			put(uint64(int64(o.Box.Y0)))
			put(uint64(int64(o.Box.X1)))
			put(uint64(int64(o.Box.Y1)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Run executes the import: reads src to exhaustion (or ctx
// cancellation), committing every chunk durably in stream order. It
// returns the run's stats — including how much work an interrupted
// earlier run already made durable — and the first error encountered.
// On error or cancellation, chunks committed so far stay applied and
// durable; re-running the same import resumes after them.
func (imp *Importer) Run(ctx context.Context, src ingest.Reader) (ImportStats, error) {
	s := imp.s
	if s.opts.Replica {
		return ImportStats{}, ErrReadOnlyReplica
	}
	imp.stats = ImportStats{}
	s.importMu.Lock()
	s.activeImports++
	s.importMu.Unlock()
	defer func() {
		s.importMu.Lock()
		s.activeImports--
		s.importMu.Unlock()
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	par := imp.opts.Parallelism
	jobs := make(chan rawChunk, par)  // reader -> workers; fixed depth = backpressure
	done := make(chan convChunk, par) // workers -> committer
	readErr := make(chan error, 1)    // reader's terminal error, if any
	resume := !imp.opts.NoResume

	// Reader: cut the stream into chunks. Blocks on jobs when the
	// pipeline is full — that is the backpressure bounding memory to
	// O(parallelism * chunk size). A chunk buffer starts at no more than
	// the default chunk and grows by append, so a huge ChunkScenes costs
	// only what the stream actually delivers.
	prealloc := min(imp.opts.ChunkScenes, DefaultImportChunkScenes)
	go func() {
		defer close(jobs)
		idx := 0
		items := make([]BulkItem, 0, prealloc)
		var bytes int64
		flush := func() bool {
			if len(items) == 0 {
				return true
			}
			rc := rawChunk{idx: idx, key: chunkKey(idx, items), items: items}
			idx++
			items = make([]BulkItem, 0, prealloc)
			bytes = 0
			select {
			case jobs <- rc:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for {
			scene, err := src.Next()
			if err == io.EOF {
				flush()
				return
			}
			if err != nil {
				readErr <- err
				return
			}
			items = append(items, BulkItem{ID: scene.ID, Name: scene.Name, Image: scene.Image})
			bytes += int64(itemSizeHint(&items[len(items)-1]))
			if len(items) >= imp.opts.ChunkScenes || bytes >= imp.opts.ChunkBytes {
				if !flush() {
					return
				}
			}
		}
	}()

	// Workers: convert, sign, encode and arena-pack each chunk. A chunk
	// whose key is already durable skips conversion entirely.
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rc := range jobs {
				cc := convChunk{rawChunk: rc}
				if resume && s.hasImportKey(rc.key) {
					cc.skip = true
				} else {
					cc.mu, cc.err = s.db.prepare(ctx, wal.Record{Op: wal.OpImport, Key: rc.key, Items: rc.items}, 1)
				}
				select {
				case done <- cc:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Committer: re-order the converted chunks back into stream order and
	// commit each as one WAL record + one MVCC version. The pending
	// buffer is bounded by the pipeline depth.
	var firstErr error
	next := 0
	pending := make(map[int]convChunk, 2*par)
	for cc := range done {
		if firstErr != nil {
			continue // draining after failure
		}
		pending[cc.idx] = cc
		for {
			c, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			err := c.err
			if err == nil {
				// The committer must see a cancellation itself: one raised
				// from Progress can lose every select in the reader and the
				// workers, and the whole stream would commit.
				err = ctx.Err()
			}
			if err == nil {
				err = imp.commitChunk(&c)
			}
			if err != nil {
				firstErr = fmt.Errorf("import chunk %d: %w", c.idx, err)
				cancel()
				break
			}
			if imp.opts.Progress != nil {
				imp.opts.Progress(imp.stats)
			}
		}
	}
	if firstErr == nil {
		select {
		case err := <-readErr:
			firstErr = fmt.Errorf("import: %w", err)
		default:
			if err := ctx.Err(); err != nil {
				firstErr = fmt.Errorf("import: %w", err)
			}
		}
	}
	return imp.stats, firstErr
}

// commitChunk is the per-chunk critical section: under the store's
// writer lock it settles resume, then runs the chunk's prepared OpImport
// mutation through apply (which validates id uniqueness against the live
// state) and the commit tail — one record (fsynced per policy), one MVCC
// version. The batcher is bypassed — the stream is already batched.
func (imp *Importer) commitChunk(cc *convChunk) error {
	s := imp.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if !imp.opts.NoResume {
		if cc.skip || s.hasImportKey(cc.key) {
			imp.noteResumed(cc)
			return nil
		}
		present := 0
		for i := range cc.items {
			if s.db.Has(cc.items[i].ID) {
				present++
			}
		}
		if present == len(cc.items) {
			// Durable via a chunk whose WAL record a checkpoint pruned:
			// chunks apply atomically, so all-ids-present means this exact
			// chunk committed. Re-learn its key.
			s.noteImportKey(cc.key)
			imp.noteResumed(cc)
			return nil
		}
		if present > 0 {
			return fmt.Errorf("%d of %d scenes already present — source or chunk "+
				"options changed since the interrupted run? (%w)", present, len(cc.items), ErrDuplicate)
		}
	}
	s.db.writeMu.Lock()
	defer s.db.writeMu.Unlock()
	m := s.db.begin()
	if err := m.apply(cc.mu); err != nil {
		return err // an id collision, which only NoResume lets get this far
	}
	n, err := s.commitLocked(m, []wal.Record{cc.mu.rec}, nil)
	if err != nil {
		return err
	}
	s.noteImportKey(cc.key)
	imp.noteCommitted(cc, n, s.appliedLSN)
	return nil
}

// noteCommitted folds one committed chunk into the run's stats and the
// store's cumulative tally (and metrics, via the tally).
func (imp *Importer) noteCommitted(cc *convChunk, walBytes int, lsn uint64) {
	imp.stats.Chunks++
	imp.stats.Images += uint64(len(cc.items))
	imp.stats.Bytes += uint64(walBytes)
	imp.stats.LSN = lsn
	s := imp.s
	s.importMu.Lock()
	s.importTally.Chunks++
	s.importTally.Images += uint64(len(cc.items))
	s.importTally.Bytes += uint64(walBytes)
	s.importTally.LSN = lsn
	s.importMu.Unlock()
}

// noteResumed folds one skipped (already durable) chunk into the stats.
func (imp *Importer) noteResumed(cc *convChunk) {
	imp.stats.ResumedChunks++
	imp.stats.ResumedImages += uint64(len(cc.items))
	s := imp.s
	s.importMu.Lock()
	s.importTally.ResumedChunks++
	s.importTally.ResumedImages += uint64(len(cc.items))
	s.importMu.Unlock()
}

// importOversizedBulk reroutes a BulkInsert whose estimated record size
// would crowd the WAL frame bound through the chunked import path: the
// batch becomes a short in-memory stream and lands as several atomic
// chunk records instead of one oversized frame (see BulkInsert's doc for
// the semantics trade).
func (s *Store) importOversizedBulk(ctx context.Context, items []BulkItem, parallelism int) error {
	scenes := make([]ingest.Scene, len(items))
	for i, it := range items {
		scenes[i] = ingest.Scene{ID: it.ID, Name: it.Name, Image: it.Image}
	}
	// Chunk at a quarter of the rerouting threshold (the default budget,
	// when the threshold holds its production value), so the rerouted
	// batch always lands as several comfortably-sized records.
	_, err := s.Import(ctx, ingest.FromItems(scenes), ImportOptions{
		ChunkBytes: bulkChunkThreshold / 4, Parallelism: parallelism,
	})
	if err != nil {
		if errors.Is(err, ErrDuplicate) || errors.Is(err, ErrStoreClosed) {
			return err
		}
		return fmt.Errorf("bulk insert (%d items, chunked): %w", len(items), err)
	}
	return nil
}
