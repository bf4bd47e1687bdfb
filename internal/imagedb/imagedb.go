// Package imagedb is the image-database substrate of the demonstration
// retrieval system (paper section 5): a concurrency-safe store of symbolic
// images indexed by their 2D BE-strings, with ranked top-k similarity
// search, a closed set of named scorers (BE-LCS, transform-invariant
// BE-LCS, its dummy-stripped ablation, or the clique-based type-i
// baselines; scorers.go) and JSON persistence.
//
// The store is MVCC: every version of the database — sharded entry maps,
// scan columns and label posting runs — is an immutable
// snapshot published through one atomic pointer with a monotonically
// increasing epoch. Mutations serialise on a writer mutex, build the
// next version copy-on-write (sharing all untouched structure) and
// publish it in a single store; queries pin an epoch once and run the
// whole staged pipeline with zero lock acquisitions on a frozen,
// consistent view. See snapshot.go and DESIGN.md section 6.
//
// Ranked search scores the pinned version on a worker pool into
// per-worker bounded top-K min-heaps (O(n log K), O(K) space per worker)
// and merges them into the exact ranking a full sort would produce; see
// topk.go and DESIGN.md section 4.
package imagedb

import (
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"bestring/internal/core"
	"bestring/internal/wal"
)

// Entry is one stored image: the symbolic image plus its precomputed 2D
// BE-string index.
type Entry struct {
	ID    string        `json:"id"`
	Name  string        `json:"name,omitempty"`
	Image core.Image    `json:"image"`
	BE    core.BEString `json:"be"`
}

// Errors returned by DB operations.
var (
	ErrNotFound  = errors.New("image not found")
	ErrDuplicate = errors.New("duplicate image id")
	ErrEmptyID   = errors.New("empty image id")
)

// DB is the symbolic-image database, partitioned into shards and
// versioned MVCC-style: reads run lock-free against the atomically
// published current snapshot, writes serialise on mu and publish the
// next copy-on-write version. New and NewSharded return a volatile
// engine; OpenStore returns a durable one, whose every mutation is
// framed into a segmented write-ahead log before it is published, plus
// checkpointed snapshots so recovery replays a bounded tail.
// Durability is exactly whether the engine holds a log: the read,
// query and write surface is the same either way. The zero value is not
// ready. All methods are safe for concurrent use.
type DB struct {
	// mu serialises every write: apply order must equal WAL append
	// order, and pre-log validation must see the state the record will
	// apply to. Readers never take it (or any other lock): they load
	// `current` once and traverse frozen data.
	mu      sync.Mutex
	current atomic.Pointer[snapshot]
	// history retains recent versions so pagination cursors can re-pin
	// the epoch their first page ran against; see epochList.
	history atomic.Pointer[epochList]
	retain  int // guarded by mu
	// seq issues global insertion sequence numbers; entries order by seq
	// to reconstruct insertion order across shards.
	seq atomic.Uint64
	// closed makes later mutations fail with ErrStoreClosed. Guarded by mu.
	closed bool

	// metrics holds the query-pipeline and group-commit instruments
	// (metrics.go) that Stats().Search and StoreStats().Commit read.
	metrics *dbMetrics

	// cache memoises exact scores of the cacheable scorers across
	// queries; built once by NewSharded. See scorercache.go for the
	// pointer-keyed exact invalidation.
	cache *scorerCache
	// doorkeeper admits a query to the scorer cache from the second
	// sighting of its key on (scorercache.go).
	doorkeeper cacheDoorkeeper

	// importKeys holds the content keys of every import chunk committed
	// in this engine's history — populated from the WAL during recovery,
	// extended by live imports and replicated chunk frames — and
	// importTally the cumulative import counters served on /healthz and
	// /metrics (import.go). Both guarded by importMu; activeImports
	// counts Importer.Run calls in flight.
	importMu      sync.Mutex
	importKeys    map[string]bool
	importTally   ImportStats
	activeImports int

	// visibleLSN is the highest LSN whose effects have been PUBLISHED as
	// an MVCC version — it trails appliedLSN by the window between WAL
	// append and publish. Read-your-writes routing (min_lsn) waits on
	// this, not on durability: a record can be fsynced an instant before
	// its version is observable. visibleCh is closed and replaced on each
	// advance (and on Close), guarded by mu. A volatile engine logs
	// nothing, so its visibleLSN stays 0.
	visibleLSN atomic.Uint64
	visibleCh  chan struct{}

	// The durable half, set by OpenStore and zero on a volatile engine:
	// log == nil is what "volatile" means (store.go).
	dir  string
	opts StoreOptions
	log  *wal.Log
	// lock is the flock-ed LOCK file excluding other writing processes
	// (a second OpenStore on the directory fails fast instead of
	// interleaving WAL appends); released by Close.
	lock *os.File
	// id is the store's durable random identity (the STOREID file),
	// minted on first open. Replication uses it to detect divergence: a
	// follower records which primary's history it embodies, and refuses
	// to stream from any other (see internal/repl).
	id string
	// batcher coalesces concurrent mutations into commit groups sharing
	// one WAL frame, one fsync and one published version (groupcommit.go);
	// nil on a replica, which commits nothing of its own, and on a
	// volatile engine, which commits each write inline.
	batcher *batcher
	// appliedLSN and bytesSince (WAL bytes since the last checkpoint
	// capture) are guarded by mu.
	appliedLSN uint64
	bytesSince int64
	// pruneFloor, when set, caps how far checkpoints may prune the WAL:
	// segments holding records above the returned LSN are retained even
	// if a snapshot covers them, so a connected replication follower can
	// still stream its backlog. Guarded by mu.
	pruneFloor func() uint64
	// Torn-tail recovery outcome of this process's OpenStore, surfaced
	// as bestring_wal_torn_tail_recoveries_total. Written once before
	// the DB is shared, read-only afterwards.
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

// New returns an empty volatile database with the default shard count.
func New() *DB { return NewSharded(0) }

// NewSharded returns an empty volatile database with an explicit shard
// count (n <= 0 means the default: GOMAXPROCS, floored at 16).
func NewSharded(n int) *DB {
	if n <= 0 {
		n = defaultShards()
	}
	db := &DB{
		retain:    snapshotRetention,
		cache:     newScorerCache(DefaultScorerCacheCapacity),
		visibleCh: make(chan struct{}),
	}
	db.metrics = newDBMetrics(db)
	first := emptySnapshot(n)
	db.current.Store(first)
	db.history.Store(&epochList{snaps: []*snapshot{first}})
	return db
}

// labelDict returns the store's label dictionary (one object for the
// DB's whole life; see snapshot.dict).
func (db *DB) labelDict() *core.LabelDict { return db.current.Load().dict }

// Epoch returns the epoch of the current version — the value a query
// issued now would pin. It increases by one per published mutation.
func (db *DB) Epoch() uint64 { return db.current.Load().epoch }

// Has reports whether an image with the given id is stored — existence
// without Get's deep copy of the entry. Lock-free.
func (db *DB) Has(id string) bool {
	_, ok := db.current.Load().lookup(id)
	return ok
}

// Get returns a copy of the entry with the given id. Lock-free.
func (db *DB) Get(id string) (Entry, bool) {
	st, ok := db.current.Load().lookup(id)
	if !ok {
		return Entry{}, false
	}
	return copyEntry(&st.Entry), true
}

// Len returns the number of stored images in the current version.
func (db *DB) Len() int { return db.current.Load().count }

// IDs returns the stored ids in insertion order.
func (db *DB) IDs() []string { return db.current.Load().orderedIDs() }

func copyEntry(e *Entry) Entry {
	return Entry{ID: e.ID, Name: e.Name, Image: e.Image.Clone(), BE: e.BE.Clone()}
}

// Result is one ranked search hit.
type Result struct {
	ID    string  `json:"id"`
	Name  string  `json:"name,omitempty"`
	Score float64 `json:"score"`
}

// sortResults orders results best first: score descending, id ascending
// on ties — the canonical deterministic result order.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return worse(rs[j], rs[i]) })
}

// queryLabels lists the distinct icon labels of the query image.
func queryLabels(query core.Image) []string {
	out := make([]string, 0, len(query.Objects))
	seen := make(map[string]bool, len(query.Objects))
	for _, o := range query.Objects {
		if !seen[o.Label] {
			seen[o.Label] = true
			out = append(out, o.Label)
		}
	}
	return out
}
