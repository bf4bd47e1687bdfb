package imagedb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// ErrStoreClosed is returned by mutations on a closed Store.
var ErrStoreClosed = errors.New("store is closed")

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
	// Shards partitions the in-memory database when the store starts
	// empty (0 means GOMAXPROCS floored at 16); a store recovered from a
	// snapshot keeps the default shard count. Shard count never affects
	// results.
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
	// ApplyReplicatedBatch, which replays the primary's WAL records into
	// this store's own log and MVCC versions (replica.go). The full read
	// surface works unchanged.
	Replica bool
}

// Store is the durable image database: a DB whose every mutation is
// framed into a segmented write-ahead log before it is applied, plus
// checkpointed snapshots so recovery replays a bounded tail. OpenStore
// recovers the state a crash left behind; Close flushes cleanly. The full
// query/search surface of DB is exposed unchanged — reads never touch the
// log — while mutations must go through the Store so no acknowledged
// write can be lost (per the fsync policy). All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts StoreOptions
	db   *DB
	log  *wal.Log
	// lock is the flock-ed LOCK file excluding other writing processes
	// (a second OpenStore on the directory fails fast instead of
	// interleaving WAL appends); released by Close.
	lock *os.File

	// batcher coalesces concurrent mutations into commit groups sharing
	// one WAL frame, one fsync and one published version (groupcommit.go);
	// nil on a replica, which commits nothing of its own.
	batcher *batcher

	// mu serialises mutations: WAL append order must equal apply order,
	// and pre-log validation must see the state the record will apply to.
	mu         sync.Mutex
	appliedLSN uint64
	bytesSince int64 // WAL bytes since the last checkpoint capture
	closed     bool

	// id is the store's durable random identity (the STOREID file),
	// minted on first open. Replication uses it to detect divergence: a
	// follower records which primary's history it embodies, and refuses
	// to stream from any other (see internal/repl).
	id string

	// visibleLSN is the highest LSN whose effects have been PUBLISHED as
	// an MVCC version — it trails appliedLSN by the window between WAL
	// append and publish. Read-your-writes routing (min_lsn) waits on
	// this, not on durability: a record can be fsynced an instant before
	// its version is observable. visibleCh is closed and replaced on each
	// advance, guarded by mu.
	visibleLSN atomic.Uint64
	visibleCh  chan struct{}

	// pruneFloor, when set, caps how far checkpoints may prune the WAL:
	// segments holding records above the returned LSN are retained even
	// if a snapshot covers them, so a connected replication follower can
	// still stream its backlog. Guarded by mu.
	pruneFloor func() uint64

	// Group-commit counters (see CommitStats), folded in once per commit
	// group under one mutex — not per-field atomics — so StoreStats (and
	// a /metrics scrape through it) can never serve a torn combination
	// like mutations < groups.
	commitMu    sync.Mutex
	commitTally struct {
		groups, mutations, rejected, largest uint64
	}

	// importKeys holds the content keys of every durable import chunk —
	// populated from the WAL during recovery, extended by live imports and
	// replicated chunk frames — and importTally the cumulative import
	// counters served on /healthz and /metrics (import.go). Both guarded
	// by importMu; activeImports counts Importer.Run calls in flight.
	importMu      sync.Mutex
	importKeys    map[string]bool
	importTally   ImportStats
	activeImports int

	// metrics is nil until EnableMetrics; an atomic pointer so metrics
	// can be enabled while the store is already committing.
	metrics atomic.Pointer[storeMetrics]

	// Torn-tail recovery outcome of this process's OpenStore, surfaced
	// as bestring_wal_torn_tail_recoveries_total. Written once before
	// the Store is shared, read-only afterwards.
	recoveredTornTails int
	recoveredTornBytes int64

	// cpMu serialises checkpoints (manual and background) against each
	// other; they hold mu only while capturing the entry list.
	cpMu          sync.Mutex
	checkpointLSN atomic.Uint64
	checkpoints   atomic.Uint64
	checkpointing atomic.Bool
	cpErr         atomic.Value // last background checkpoint error string
	wg            sync.WaitGroup
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
// and recovers its state: the newest snapshot that loads cleanly, plus a
// replay of every WAL record with a newer LSN. A torn final record — a
// crash mid-append — is truncated and tolerated; interior log corruption
// or a snapshot/WAL gap aborts with a descriptive error rather than
// serving a state the database never passed through.
func OpenStore(dataDir string, opts StoreOptions) (*Store, error) {
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
		d, err := LoadFile(filepath.Join(dataDir, name))
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
	s := &Store{
		dir: dataDir, opts: opts, db: db, log: log, lock: lock, appliedLSN: lastLSN,
		recoveredTornTails: rinfo.TornTails, recoveredTornBytes: rinfo.TornBytes,
		importKeys: importKeys,
	}
	s.checkpointLSN.Store(snapLSN)
	s.visibleLSN.Store(lastLSN) // the recovered state is fully published
	s.visibleCh = make(chan struct{})
	if s.id, err = loadOrCreateStoreID(dataDir); err != nil {
		log.Close()
		return nil, fmt.Errorf("open store: %w", err)
	}
	if !opts.Replica {
		s.batcher = newBatcher(s, opts.CommitBatch)
	}
	ok = true
	return s, nil
}

// commitLocked is the one commit tail of the durable store: it makes the
// mutations applied to m durable and only then visible. recs are the
// records describing them, in apply order. A primary's commit is one
// frame — a plain record when it holds one mutation (so a sequential
// writer's log is one record per mutation), an OpGroup envelope
// otherwise — assigned the next LSN; a replica re-frames (or, given the
// wire frames, copies verbatim) the primary's pre-numbered records as one
// batch. Either way: one fsync per policy, one published version. On an
// append error nothing is durable, so nothing publishes (groupcommit.go
// has the full argument). Callers hold s.mu and db.writeMu and have
// applied every record to m, so the log can only ever hold records that
// apply to the state its prefix produces. Returns the framed bytes
// appended.
func (s *Store) commitLocked(m *txn, recs []wal.Record, frames [][]byte) (int, error) {
	var lsn uint64
	var n int
	var err error
	switch {
	case !s.opts.Replica:
		rec := recs[0]
		if len(recs) > 1 {
			rec = wal.Record{Op: wal.OpGroup, Subs: recs}
		}
		lsn, n, err = s.log.Append(rec)
	case frames != nil:
		lsn = recs[len(recs)-1].LSN
		n, err = s.log.AppendBatchFrames(recs, frames)
	default:
		lsn = recs[len(recs)-1].LSN
		n, err = s.log.AppendBatch(recs)
	}
	if err != nil {
		return 0, err
	}
	s.appliedLSN = lsn
	s.bytesSince += int64(n)
	s.db.publish(m)
	s.markVisibleLocked(lsn)
	s.maybeCheckpointLocked()
	return n, nil
}

// maybeCheckpointLocked kicks off a background checkpoint when enough WAL
// bytes have accumulated. Callers hold s.mu.
func (s *Store) maybeCheckpointLocked() {
	if s.opts.CheckpointBytes > 0 && s.bytesSince >= s.opts.CheckpointBytes &&
		s.checkpointing.CompareAndSwap(false, true) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.checkpointing.Store(false)
			if err := s.checkpoint(); err != nil && !errors.Is(err, ErrStoreClosed) {
				s.cpErr.Store(err.Error())
			}
		}()
	}
}

// markVisibleLocked records that every LSN through lsn is observable in a
// published MVCC version and wakes WaitVisible callers. Callers hold s.mu
// and have just published the version applying lsn.
func (s *Store) markVisibleLocked(lsn uint64) {
	if lsn <= s.visibleLSN.Load() {
		return
	}
	s.visibleLSN.Store(lsn)
	close(s.visibleCh)
	s.visibleCh = make(chan struct{})
}

// commit is the door every single-record local mutation takes: replica
// check, a cheap presence fast-fail, prepare outside every lock, then
// the commit queue — the caller blocks until its group's fsync.
func (s *Store) commit(rec wal.Record) error {
	if s.opts.Replica {
		return ErrReadOnlyReplica
	}
	// Fast-fail without paying conversion or a trip through the queue.
	// Racy only in the benign direction: the commit-time check in
	// txn.apply is authoritative.
	if err := presenceErr(&rec, s.db.Has(rec.ID)); err != nil {
		return err
	}
	mu, err := s.db.prepare(context.Background(), rec, 0)
	if err != nil {
		return err
	}
	return s.batcher.submit(mu, sizeHint(&mu.rec))
}

// Insert durably stores the image under id: the mutation is validated,
// framed into the WAL (fsynced per policy) and only then applied.
// Conversion and cloning happen before the mutation enters the commit
// queue, so concurrent writers pay the CPU-bound half of an insert in
// parallel and share one fsync (see groupcommit.go).
func (s *Store) Insert(id, name string, img core.Image) error {
	return s.commit(wal.Record{Op: wal.OpInsert, ID: id, Name: name, Image: &img})
}

// Delete durably removes the image with the given id.
func (s *Store) Delete(id string) error {
	return s.commit(wal.Record{Op: wal.OpDelete, ID: id})
}

// InsertObject durably adds an object to a stored image. The new image
// is validated against the commit group's transaction state (which may
// include earlier mutations of the same group), so the conversion runs
// in the committer.
func (s *Store) InsertObject(id string, o core.Object) error {
	return s.commit(wal.Record{Op: wal.OpInsertObject, ID: id, Object: &o})
}

// DeleteObject durably removes a labelled object from a stored image.
func (s *Store) DeleteObject(id, label string) error {
	return s.commit(wal.Record{Op: wal.OpDeleteObject, ID: id, Label: label})
}

// bulkChunkThreshold is the conservative size estimate above which a
// bulk batch is routed through the chunked import path instead of one
// WAL record: well under the wal.MaxRecordBytes frame bound, with room
// for the estimate being an estimate. A package var so tests can lower
// it without building multi-megabyte batches.
var bulkChunkThreshold = int64(maxGroupBytes)

// BulkInsert durably inserts a batch with the same all-or-nothing
// contract as DB.BulkInsert: the whole batch is validated and converted
// (in parallel, outside the writer lock) before a single WAL record is
// written for it, so the log can never hold half a batch. The one-record
// encoding bounds a batch to wal.MaxRecordBytes (64 MiB) of encoded
// payload; a batch estimated anywhere near that is routed through the
// streaming importer automatically, which splits it into chunk records —
// each chunk stays atomic and duplicate ids still fail the whole call,
// but chunks already committed when a later chunk fails remain applied
// (the trade documented in DESIGN.md section 12). Callers needing strict
// all-or-nothing semantics at that scale should import explicitly. A
// normal-sized bulk batch travels through the commit queue as one unit:
// it may share a commit group (and its fsync) with other mutations, but
// is still applied and logged all-or-nothing.
func (s *Store) BulkInsert(ctx context.Context, items []BulkItem, parallelism int) error {
	if s.opts.Replica {
		return ErrReadOnlyReplica
	}
	if len(items) == 0 {
		return nil
	}
	rec := wal.Record{Op: wal.OpBulk, Items: items}
	size := sizeHint(&rec)
	if int64(size) > bulkChunkThreshold {
		return s.importOversizedBulk(ctx, items, parallelism)
	}
	mu, err := s.db.prepare(ctx, rec, parallelism)
	if err != nil {
		return err
	}
	err = s.batcher.submit(mu, size)
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
// a checkpoint of a huge store no longer stalls mutations (or any
// reader) while it serialises.
func (s *Store) Checkpoint() error { return s.checkpoint() }

func (s *Store) checkpoint() (err error) {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStoreClosed
	}
	lsn := s.appliedLSN
	if lsn == s.checkpointLSN.Load() {
		s.mu.Unlock()
		return nil
	}
	// Pin the version corresponding to appliedLSN. Mutations serialise
	// on s.mu, so the current MVCC snapshot here is exactly the state
	// the log reaches at lsn; being immutable, it can be read after the
	// lock is released.
	pinned := s.db.current.Load()
	// Rotate so every record the snapshot covers sits in a sealed
	// segment; sealed segments behind the snapshot become prunable.
	rotErr := s.log.Rotate()
	captured := s.bytesSince
	s.bytesSince = 0
	s.mu.Unlock()
	// On failure put the accounted bytes back, so the automatic trigger
	// retries on the next append instead of waiting for another full
	// CheckpointBytes of traffic to accumulate behind a transient error.
	defer func() {
		if err != nil {
			s.mu.Lock()
			s.bytesSince += captured
			s.mu.Unlock()
		}
	}()
	if rotErr != nil {
		return fmt.Errorf("checkpoint: %w", rotErr)
	}

	path := filepath.Join(s.dir, snapshotName(lsn))
	if err := fsutil.AtomicWriteFile(path, func(w io.Writer) error {
		return saveEntries(w, pinned.orderedEntries())
	}); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.checkpointLSN.Store(lsn)
	s.checkpoints.Add(1)

	// The snapshot makes segments through lsn redundant for RECOVERY, but
	// a connected replication follower may still need them: the prune
	// floor (min acked LSN across followers, internal/repl) caps how far
	// pruning goes. Retained segments are reclaimed by a later checkpoint
	// once every follower has acked past them.
	prune := lsn
	s.mu.Lock()
	floor := s.pruneFloor
	s.mu.Unlock()
	if floor != nil {
		if f := floor(); f < prune {
			prune = f
		}
	}
	if err := s.log.RemoveObsolete(prune); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Older snapshots are now strictly redundant: the new one is complete
	// (atomic rename) and the WAL behind it is gone.
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, name := range snaps {
		if l, _ := parseSnapshotName(name); l < lsn {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	if err := fsutil.SyncDir(s.dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.cpErr.Store("")
	return nil
}

// Sync forces buffered WAL appends to stable storage, whatever the
// fsync policy. Under FsyncAlways it is a no-op beyond an fsync of an
// already-clean file.
func (s *Store) Sync() error { return s.log.Sync() }

// Close flushes the WAL and closes the store. Every acknowledged
// mutation is durable after a clean Close under any fsync policy.
// Further mutations return ErrStoreClosed; reads keep working against
// the in-memory state.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Wake WaitVisible callers so min_lsn reads fail fast on shutdown.
	close(s.visibleCh)
	s.visibleCh = make(chan struct{})
	s.mu.Unlock()
	if s.batcher != nil {
		// Drain: requests already accepted into the commit queue are
		// committed (and their callers released) before the committer
		// exits; new submissions get ErrStoreClosed.
		s.batcher.close()
	}
	s.wg.Wait() // let an in-flight background checkpoint finish or bail
	err := s.log.Close()
	if cerr := s.lock.Close(); cerr != nil && err == nil { // releases the flock
		err = cerr
	}
	return err
}

// StoreStats describes the durable layer, for /healthz and tooling.
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

// StoreStats reports the state of the WAL, checkpointer and group
// committer. (DB-level occupancy is served by Stats, unchanged.)
func (s *Store) StoreStats() StoreStats {
	s.commitMu.Lock()
	commit := CommitStats{
		Enabled:   s.batcher != nil,
		Groups:    s.commitTally.groups,
		Mutations: s.commitTally.mutations,
		Rejected:  s.commitTally.rejected,
		Largest:   s.commitTally.largest,
	}
	s.commitMu.Unlock()
	st := StoreStats{
		Dir:           s.dir,
		StoreID:       s.id,
		Replica:       s.opts.Replica,
		AppliedLSN:    s.AppliedLSN(),
		VisibleLSN:    s.visibleLSN.Load(),
		CheckpointLSN: s.checkpointLSN.Load(),
		Checkpoints:   s.checkpoints.Load(),
		WAL:           s.log.Stats(),
		Commit:        commit,
		Import:        s.ImportStats(),
	}
	if s.batcher != nil {
		st.Commit.Window = commitWindow.String()
		st.Commit.MaxBatch = s.opts.CommitBatch
	}
	st.LastLSN = st.WAL.LastLSN
	if v, ok := s.cpErr.Load().(string); ok {
		st.CheckpointErr = v
	}
	return st
}

// The read/query surface of DB, delegated unchanged: reads never touch
// the WAL, so the staged pipeline, scorer registry and pagination all
// work identically on a Store.

// Get returns a copy of the entry with the given id.
func (s *Store) Get(id string) (Entry, bool) { return s.db.Get(id) }

// Has reports whether an image with the given id is stored.
func (s *Store) Has(id string) bool { return s.db.Has(id) }

// Len returns the number of stored images.
func (s *Store) Len() int { return s.db.Len() }

// IDs returns the stored ids in insertion order.
func (s *Store) IDs() []string { return s.db.IDs() }

// Stats reports shard occupancy of the underlying database.
func (s *Store) Stats() Stats { return s.db.Stats() }

// ShardCount returns the number of partitions of the underlying database.
func (s *Store) ShardCount() int { return s.db.ShardCount() }

// Save writes a snapshot of the current state (see DB.Save).
func (s *Store) Save(w io.Writer) error { return s.db.Save(w) }

// Query executes a composable query (see DB.Query).
func (s *Store) Query(ctx context.Context, q *Query, opts ...QueryOption) (*Page, error) {
	return s.db.Query(ctx, q, opts...)
}

// QueryIter streams a composable query's results (see DB.QueryIter).
func (s *Store) QueryIter(ctx context.Context, q *Query, opts ...QueryOption) iter.Seq2[Hit, error] {
	return s.db.QueryIter(ctx, q, opts...)
}

// Snapshot pins the current version of the store for lock-free,
// perfectly repeatable reads (see DB.Snapshot). The pinned view is
// in-memory only; durability of the mutations it shows is governed by
// the fsync policy as usual.
func (s *Store) Snapshot() *Snapshot { return s.db.Snapshot() }

// Epoch returns the epoch of the store's current version.
func (s *Store) Epoch() uint64 { return s.db.Epoch() }

// SetScorerCacheCapacity resizes (or, with n <= 0, disables) the scorer
// cache of the store's engine (see DB.SetScorerCacheCapacity).
func (s *Store) SetScorerCacheCapacity(n int) { s.db.SetScorerCacheCapacity(n) }

// ScorerCacheStats reports the scorer cache's occupancy and lifetime
// eviction count (see DB.ScorerCacheStats).
func (s *Store) ScorerCacheStats() ScorerCacheStats { return s.db.ScorerCacheStats() }
