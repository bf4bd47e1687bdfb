package imagedb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"bestring/internal/core"
	"bestring/internal/fsutil"
	"bestring/internal/wal"
)

// FsyncPolicy selects when acknowledged mutations reach stable storage.
type FsyncPolicy = wal.Policy

// Fsync policies, re-exported from the WAL layer.
const (
	FsyncAlways   = wal.SyncAlways
	FsyncInterval = wal.SyncInterval
	FsyncNever    = wal.SyncNever
)

// ParseFsyncPolicy reads an fsync policy name ("always", "interval" or
// "never") as accepted by the CLI and server flags.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// ErrStoreClosed is returned by mutations on a closed DB.
var ErrStoreClosed = errors.New("store is closed")

// ErrNotDurable is returned where durability is required of a volatile
// engine — one made by New or NewSharded rather than OpenStore: it has
// no write-ahead log to checkpoint, sync, stream or replicate.
var ErrNotDurable = errors.New("engine is not durable (no write-ahead log)")

// Default store tuning.
const (
	// DefaultCheckpointBytes bounds the log a restart has to replay. A
	// checkpoint rewrites the whole corpus, so the threshold is as large
	// as the replay bound allows: recovery installs a tail of
	// single-scene writes at tens of thousands of records a second (it
	// was ~1 000 while every replayed delete searched an R-tree), so 64
	// MiB — some 160 000 such writes — replays in seconds.
	DefaultCheckpointBytes = 64 << 20
	snapshotPrefix         = "snapshot-"
	snapshotSuffix         = ".json"
)

// StoreOptions tune OpenStore.
type StoreOptions struct {
	// Shards partitions the database when the store starts empty (0
	// means max(GOMAXPROCS, 16)); a store recovered from a snapshot keeps
	// the default shard count. Shard count never affects results.
	Shards int
	// SegmentBytes rotates the WAL at this size (0 means 4 MiB).
	SegmentBytes int64
	// Fsync is the WAL durability policy (zero value: FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the flush cadence under the interval policy
	// (0 means 100ms).
	FsyncInterval time.Duration
	// CheckpointBytes triggers a background checkpoint once this many WAL
	// bytes accumulate since the last one (0 means 64 MiB; negative
	// disables automatic checkpointing — Checkpoint can still be called).
	CheckpointBytes int64
	// CommitBatch caps the mutations coalesced into one commit group
	// (0 means 128; 1 means one WAL frame and one fsync per mutation).
	// See groupcommit.go.
	CommitBatch int
	// Replica opens the store as a read-only replication follower: local
	// mutations return ErrReadOnlyReplica and state advances only through
	// ApplyReplicatedFrames, which appends the primary's WAL frames to
	// this store's own log and replays them into its MVCC versions
	// (replica.go). The full read surface works unchanged.
	Replica bool
}

// snapshotName formats the snapshot file covering records through lsn.
func snapshotName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapshotPrefix, lsn, snapshotSuffix)
}

// parseSnapshotName inverts snapshotName.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	lsn, err := strconv.ParseUint(
		strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// listSnapshots returns snapshot file names in dir, newest (highest LSN)
// first.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded hex
	return names, nil
}

// OpenStore opens (creating if necessary) the durable store in dataDir
// and recovers its state: the newest snapshot that loads cleanly (through
// loadSnapshot), plus a replay of every WAL record with a newer LSN. A torn
// final record — a crash mid-append — is truncated and tolerated;
// interior log corruption or a snapshot/WAL gap aborts with a
// descriptive error rather than serving a state the database never
// passed through. The recovered DB then gets the log, the directory
// lock, the store id and (unless a replica) the commit batcher.
func OpenStore(dataDir string, opts StoreOptions) (*DB, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = wal.DefaultSegmentBytes
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if opts.CommitBatch <= 0 {
		opts.CommitBatch = DefaultCommitBatch
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	// One writing process per directory: a concurrent server + compactor
	// would interleave WAL appends and prune under each other.
	// (InspectStore stays lock-free: it is read-only by construction.)
	lock, err := fsutil.LockFile(filepath.Join(dataDir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	// With the directory exclusively ours, leftover temp files can only
	// be litter from an interrupted atomic write — sweep them.
	if err := fsutil.SweepTemps(dataDir); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}

	// Latest valid snapshot wins; an unreadable newer one (e.g. disk
	// damage) falls back to its predecessor, whose WAL tail then replays.
	snaps, err := listSnapshots(dataDir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var db *DB
	var snapLSN uint64
	var loadErrs []error
	for _, name := range snaps {
		d, err := loadSnapshot(filepath.Join(dataDir, name))
		if err != nil {
			loadErrs = append(loadErrs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		db = d
		snapLSN, _ = parseSnapshotName(name)
		break
	}
	if db == nil {
		if len(loadErrs) > 0 {
			return nil, fmt.Errorf("open store: no loadable snapshot: %w", errors.Join(loadErrs...))
		}
		db = NewSharded(opts.Shards)
	}

	// Under SyncAlways every acknowledged frame was fsynced in order, so
	// mid-file damage in the final segment is real corruption and replay
	// must refuse. Under interval/never the unsynced tail can reach the
	// disk out of order after a crash, so any bad frame there ends the
	// log instead (the dropped records sit inside the policy's
	// acknowledged-loss window). The decision follows the policy that
	// WROTE the log (the wal's durable marker), not this open's options —
	// reopening an always-written log with -fsync never must not turn
	// bit rot into silent truncation of fsynced acknowledged records.
	// Absent marker (no previous writer): strict, the refusing default.
	tolerantTail := false
	if p, ok := wal.WrittenPolicy(dataDir); ok {
		tolerantTail = p != wal.SyncAlways
	}
	// Import chunk keys seen during replay feed the importer's resume
	// check: a restarted import skips every chunk whose key is already in
	// the durable log (import.go).
	importKeys := make(map[string]bool)
	// The whole tail replays into ONE transaction, published once: no
	// reader exists yet to observe intermediate versions, cursors cannot
	// outlive the process (epochs restart with it), and a replay error
	// abandons the database altogether — so per-record copy-on-write,
	// versions and history-ring entries would buy nothing.
	m := db.begin()
	rinfo, err := wal.Recover(dataDir, snapLSN, tolerantTail, func(rec wal.Record) error {
		if rec.Op == wal.OpImport && rec.Key != "" {
			importKeys[rec.Key] = true
		}
		return m.replay(&rec)
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	db.publish(m)
	lastLSN := rinfo.LastLSN

	log, err := wal.Open(dataDir, lastLSN+1, wal.Options{
		SegmentBytes: opts.SegmentBytes,
		Policy:       opts.Fsync,
		Interval:     opts.FsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	db.dir, db.opts, db.log, db.lock, db.appliedLSN = dataDir, opts, log, lock, lastLSN
	db.recoveredTornTails, db.recoveredTornBytes = rinfo.TornTails, rinfo.TornBytes
	db.importKeys = importKeys
	db.checkpointLSN.Store(snapLSN)
	db.visibleLSN.Store(lastLSN) // the recovered state is fully published
	if db.id, err = loadOrCreateStoreID(dataDir); err != nil {
		log.Close()
		return nil, fmt.Errorf("open store: %w", err)
	}
	if !opts.Replica {
		db.batcher = newBatcher(db, opts.CommitBatch)
	}
	ok = true
	return db, nil
}

// commitLocked is the one commit tail: it makes the mutations applied to
// m durable and only then visible. recs are the records describing
// them, in apply order. On a volatile engine it only publishes. A
// primary's commit is one frame — a plain record when it holds one
// mutation (so a sequential writer's log is one record per mutation), an
// OpGroup envelope otherwise — assigned the next LSN; a replica copies
// the primary's pre-numbered wire frames verbatim as one batch. Either
// way: one fsync per policy, one published version. On an append error
// nothing is durable, so nothing publishes (groupcommit.go has the full
// argument). Callers hold db.mu and have applied every record to m, so
// the log can only ever hold records that apply to the state its prefix
// produces. Returns the framed bytes appended.
func (db *DB) commitLocked(m *txn, recs []wal.Record, frames [][]byte) (int, error) {
	if db.log == nil {
		db.publish(m)
		return 0, nil
	}
	var lsn uint64
	var n int
	var err error
	if db.opts.Replica {
		lsn = recs[len(recs)-1].LSN
		n, err = db.log.AppendBatchFrames(recs, frames)
	} else {
		rec := recs[0]
		if len(recs) > 1 {
			rec = wal.Record{Op: wal.OpGroup, Subs: recs}
		}
		lsn, n, err = db.log.Append(rec)
	}
	if err != nil {
		return 0, err
	}
	db.appliedLSN = lsn
	db.bytesSince += int64(n)
	db.publish(m)
	db.markVisibleLocked(lsn)
	db.maybeCheckpointLocked()
	return n, nil
}

// maybeCheckpointLocked kicks off a background checkpoint when enough WAL
// bytes have accumulated. Callers hold db.mu.
func (db *DB) maybeCheckpointLocked() {
	if db.opts.CheckpointBytes > 0 && db.bytesSince >= db.opts.CheckpointBytes &&
		db.checkpointing.CompareAndSwap(false, true) {
		db.wg.Add(1)
		go func() {
			defer db.wg.Done()
			defer db.checkpointing.Store(false)
			if err := db.Checkpoint(); err != nil && !errors.Is(err, ErrStoreClosed) {
				db.cpErr.Store(err.Error())
			}
		}()
	}
}

// markVisibleLocked records that every LSN through lsn is observable in a
// published MVCC version and wakes WaitVisible callers. Callers hold
// db.mu and have just published the version applying lsn.
func (db *DB) markVisibleLocked(lsn uint64) {
	if lsn <= db.visibleLSN.Load() {
		return
	}
	db.visibleLSN.Store(lsn)
	close(db.visibleCh)
	db.visibleCh = make(chan struct{})
}

// commit is the door every single-record local mutation takes: replica
// check, a cheap presence fast-fail, prepare outside every lock, then
// the commit.
func (db *DB) commit(rec wal.Record) error {
	if db.opts.Replica {
		return ErrReadOnlyReplica
	}
	// Fast-fail without paying conversion or a trip through the queue.
	// Racy only in the benign direction: the commit-time check in
	// txn.apply is authoritative.
	if err := presenceErr(&rec, db.Has(rec.ID)); err != nil {
		return err
	}
	mu, err := db.prepare(context.Background(), rec, 0)
	if err != nil {
		return err
	}
	return db.submit(mu, sizeHint(&mu.rec))
}

// submit commits a prepared mutation and returns its own result. A
// durable primary queues it for the batcher and blocks until its
// group's fsync; a volatile engine has nothing to coalesce and commits
// it inline as a group of one.
func (db *DB) submit(mu *mutation, size int) error {
	if db.batcher != nil {
		return db.batcher.submit(mu, size)
	}
	req := &commitReq{mutation: mu, size: size, done: make(chan struct{})}
	db.commitGroup([]*commitReq{req})
	return req.err
}

// Insert converts the image to its 2D BE-string and stores it under id.
// On a durable engine the mutation is validated, framed into the WAL
// (fsynced per policy) and only then published. Conversion and cloning
// happen before the mutation enters the commit queue, so concurrent
// writers pay the CPU-bound half of an insert in parallel and share one
// fsync (see groupcommit.go).
func (db *DB) Insert(id, name string, img core.Image) error {
	return db.commit(wal.Record{Op: wal.OpInsert, ID: id, Name: name, Image: &img})
}

// Delete removes the image with the given id.
func (db *DB) Delete(id string) error {
	return db.commit(wal.Record{Op: wal.OpDelete, ID: id})
}

// InsertObject adds an object to a stored image, reindexing it; the
// update is rejected if the result no longer converts. The new image is
// validated against the commit group's transaction state (which may
// include earlier mutations of the same group), so the conversion runs
// in the committer.
func (db *DB) InsertObject(id string, o core.Object) error {
	return db.commit(wal.Record{Op: wal.OpInsertObject, ID: id, Object: &o})
}

// DeleteObject removes a labelled object from a stored image, reindexing.
func (db *DB) DeleteObject(id, label string) error {
	return db.commit(wal.Record{Op: wal.OpDeleteObject, ID: id, Label: label})
}

// bulkChunkThreshold is the conservative size estimate above which a
// durable bulk batch is routed through the chunked import path instead
// of one WAL record: well under the wal.MaxRecordBytes frame bound, with
// room for the estimate being an estimate. A package var so tests can
// lower it without building multi-megabyte batches.
var bulkChunkThreshold = int64(maxGroupBytes)

// BulkInsert converts many images in parallel (the conversions are
// independent and CPU-bound, the expensive part of an insert) and then
// installs them as ONE record: the whole batch is validated and
// converted outside the writer lock, and is all-or-nothing — if any item
// fails validation, conversion or collides with an existing id, nothing
// is inserted, and the batch lands in one published version (a single
// epoch bump), so a concurrent reader sees none of it or all of it. On a
// durable engine that one record is one WAL record, so the log can never
// hold half a batch; it may share a commit group (and its fsync) with
// other mutations. parallelism <= 0 means GOMAXPROCS.
//
// The one-record encoding bounds a durable batch to wal.MaxRecordBytes
// (64 MiB) of encoded payload, so a durable batch estimated anywhere
// near that is routed through the streaming importer instead, which
// splits it into chunk records: each chunk stays atomic and duplicate
// ids still fail the whole call, but chunks already committed when a
// later chunk fails remain applied (the trade documented in DESIGN.md
// section 12). Callers needing strict all-or-nothing semantics at that
// scale should import explicitly. A volatile engine has no record bound
// and keeps the one-record contract at any size.
func (db *DB) BulkInsert(ctx context.Context, items []BulkItem, parallelism int) error {
	if db.opts.Replica {
		return ErrReadOnlyReplica
	}
	if len(items) == 0 {
		return nil
	}
	rec := wal.Record{Op: wal.OpBulk, Items: items}
	size := sizeHint(&rec)
	if db.log != nil && int64(size) > bulkChunkThreshold {
		return db.importOversizedBulk(ctx, items, parallelism)
	}
	mu, err := db.prepare(ctx, rec, parallelism)
	if err != nil {
		return err
	}
	err = db.submit(mu, size)
	if err != nil && !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrStoreClosed) {
		return fmt.Errorf("bulk insert (%d items): %w", len(items), err)
	}
	return err
}

// Checkpoint writes a snapshot of the current state next to the log and
// prunes WAL segments (and older snapshots) the snapshot has made
// obsolete, bounding both recovery time and disk use. It blocks writers
// only while an MVCC snapshot is pinned (one atomic load) and the log
// rotated; entry-list extraction, encoding and the file writes all
// happen outside the writer lock against the pinned immutable version —
// a checkpoint of a huge store does not stall mutations (or any
// reader) while it serialises. On a volatile engine it returns
// ErrNotDurable.
func (db *DB) Checkpoint() (err error) {
	if db.log == nil {
		return ErrNotDurable
	}
	db.cpMu.Lock()
	defer db.cpMu.Unlock()

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrStoreClosed
	}
	lsn := db.appliedLSN
	if lsn == db.checkpointLSN.Load() {
		db.mu.Unlock()
		return nil
	}
	// Pin the version corresponding to appliedLSN. Mutations serialise
	// on db.mu, so the current MVCC snapshot here is exactly the state
	// the log reaches at lsn; being immutable, it can be read after the
	// lock is released.
	pinned := db.current.Load()
	// Rotate so every record the snapshot covers sits in a sealed
	// segment; sealed segments behind the snapshot become prunable.
	rotErr := db.log.Rotate()
	captured := db.bytesSince
	db.bytesSince = 0
	db.mu.Unlock()
	// On failure put the accounted bytes back, so the automatic trigger
	// retries on the next append instead of waiting for another full
	// CheckpointBytes of traffic to accumulate behind a transient error.
	defer func() {
		if err != nil {
			db.mu.Lock()
			db.bytesSince += captured
			db.mu.Unlock()
		}
	}()
	if rotErr != nil {
		return fmt.Errorf("checkpoint: %w", rotErr)
	}

	path := filepath.Join(db.dir, snapshotName(lsn))
	if err := fsutil.AtomicWriteFile(path, func(w io.Writer) error {
		return saveEntries(w, pinned.orderedEntries())
	}); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	db.checkpointLSN.Store(lsn)
	db.checkpoints.Add(1)

	// The snapshot makes segments through lsn redundant for RECOVERY, but
	// a connected replication follower may still need them: the prune
	// floor (min acked LSN across followers, internal/repl) caps how far
	// pruning goes. Retained segments are reclaimed by a later checkpoint
	// once every follower has acked past them.
	prune := lsn
	db.mu.Lock()
	floor := db.pruneFloor
	db.mu.Unlock()
	if floor != nil {
		if f := floor(); f < prune {
			prune = f
		}
	}
	if err := db.log.RemoveObsolete(prune); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Older snapshots are now strictly redundant: the new one is complete
	// (atomic rename) and the WAL behind it is gone.
	snaps, err := listSnapshots(db.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, name := range snaps {
		if l, _ := parseSnapshotName(name); l < lsn {
			if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	if err := fsutil.SyncDir(db.dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	db.cpErr.Store("")
	return nil
}

// Sync forces buffered WAL appends to stable storage, whatever the
// fsync policy. Under FsyncAlways it is a no-op beyond an fsync of an
// already-clean file. On a volatile engine it returns ErrNotDurable.
func (db *DB) Sync() error {
	if db.log == nil {
		return ErrNotDurable
	}
	return db.log.Sync()
}

// Close stops the DB accepting mutations: later ones return
// ErrStoreClosed, while reads keep working against the in-memory state.
// On a durable engine it also drains the commit queue, waits out a
// background checkpoint and flushes and closes the WAL — every
// acknowledged mutation is durable after a clean Close under any fsync
// policy — and releases the directory lock. Closing twice is a no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	// Wake WaitVisible callers so min_lsn reads fail fast on shutdown.
	close(db.visibleCh)
	db.visibleCh = make(chan struct{})
	db.mu.Unlock()
	if db.log == nil {
		return nil
	}
	if db.batcher != nil {
		// Drain: requests already accepted into the commit queue are
		// committed (and their callers released) before the committer
		// exits; new submissions get ErrStoreClosed.
		db.batcher.close()
	}
	db.wg.Wait() // let an in-flight background checkpoint finish or bail
	err := db.log.Close()
	if cerr := db.lock.Close(); cerr != nil && err == nil { // releases the flock
		err = cerr
	}
	return err
}

// Durable reports whether the DB holds a write-ahead log, i.e. whether
// it was made by OpenStore.
func (db *DB) Durable() bool { return db.log != nil }

// StoreStats describes the write side, for /healthz and tooling.
type StoreStats struct {
	Dir           string      `json:"dir"`
	StoreID       string      `json:"storeId"`
	Replica       bool        `json:"replica,omitempty"`
	LastLSN       uint64      `json:"lastLSN"`
	AppliedLSN    uint64      `json:"appliedLSN"`
	VisibleLSN    uint64      `json:"visibleLSN"`
	CheckpointLSN uint64      `json:"checkpointLSN"`
	Checkpoints   uint64      `json:"checkpoints"` // completed this session
	WAL           wal.Stats   `json:"wal"`
	Commit        CommitStats `json:"commit"`
	Import        ImportStats `json:"import"`
	CheckpointErr string      `json:"checkpointErr,omitempty"`
}

// StoreStats reports the state of the group committer and the import
// tally and, on a durable engine, of the WAL and checkpointer. On a
// volatile engine only Commit and Import are set. (Occupancy is served
// by Stats.)
func (db *DB) StoreStats() StoreStats {
	commit := db.metrics.commitStats()
	commit.Enabled = !db.opts.Replica
	st := StoreStats{Commit: commit, Import: db.ImportStats()}
	if db.log == nil {
		return st
	}
	st.Dir, st.StoreID, st.Replica = db.dir, db.id, db.opts.Replica
	st.AppliedLSN = db.AppliedLSN()
	st.VisibleLSN = db.visibleLSN.Load()
	st.CheckpointLSN = db.checkpointLSN.Load()
	st.Checkpoints = db.checkpoints.Load()
	st.WAL = db.log.Stats()
	st.LastLSN = st.WAL.LastLSN
	if db.batcher != nil {
		st.Commit.Window = commitWindow.String()
		st.Commit.MaxBatch = db.opts.CommitBatch
	}
	if v, ok := db.cpErr.Load().(string); ok {
		st.CheckpointErr = v
	}
	return st
}
