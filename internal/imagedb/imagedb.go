// Package imagedb is the image-database substrate of the demonstration
// retrieval system (paper section 5): a concurrency-safe store of symbolic
// images indexed by their 2D BE-strings, with ranked top-k similarity
// search, pluggable scoring methods (BE-LCS, transform-invariant BE-LCS, or
// the clique-based type-i baselines) and JSON persistence.
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
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"bestring/internal/baseline/typesim"
	"bestring/internal/core"
	"bestring/internal/similarity"
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

// DB is an in-memory symbolic-image database, partitioned into shards
// and versioned MVCC-style: reads run lock-free against the atomically
// published current snapshot, writes serialise on writeMu and publish
// the next copy-on-write version. The zero value is not ready; use New
// or NewSharded. All methods are safe for concurrent use.
type DB struct {
	// writeMu serialises mutations. Readers never take it (or any other
	// lock): they load `current` once and traverse frozen data.
	writeMu sync.Mutex
	current atomic.Pointer[snapshot]
	// history retains recent versions so pagination cursors can re-pin
	// the epoch their first page ran against; see epochList.
	history atomic.Pointer[epochList]
	retain  int // guarded by writeMu
	// seq issues global insertion sequence numbers; entries order by seq
	// to reconstruct insertion order across shards.
	seq atomic.Uint64

	// Cumulative filter-and-refine counters (see SearchStats), folded in
	// once per executed query under one mutex — not per-field atomics —
	// so Stats() always reads a coherent combination: a scrape can never
	// observe the narrowed total of query N+1 next to the query count of
	// N. The lock is taken once per query, not per candidate.
	searchMu sync.Mutex
	search   SearchStats

	// metrics is nil until EnableMetrics; an atomic pointer so metrics
	// can be enabled while the DB is already serving.
	metrics atomic.Pointer[dbMetrics]

	// cache memoises exact scores of BE-pure registry scorers across
	// queries; built once by NewSharded. See scorercache.go for the
	// pointer-keyed exact invalidation.
	cache *scorerCache
	// doorkeeper admits a query to the scorer cache from the second
	// sighting of its key on (scorercache.go).
	doorkeeper cacheDoorkeeper
}

// New returns an empty database with the default shard count.
func New() *DB { return NewSharded(0) }

// NewSharded returns an empty database with an explicit shard count
// (n <= 0 means the default: GOMAXPROCS, floored at 16).
func NewSharded(n int) *DB {
	if n <= 0 {
		n = defaultShards()
	}
	db := &DB{retain: DefaultSnapshotRetention, cache: newScorerCache(DefaultScorerCacheCapacity)}
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

// Insert converts the image to its 2D BE-string and stores it under id.
func (db *DB) Insert(id, name string, img core.Image) error {
	return db.mutate(context.Background(), wal.Record{Op: wal.OpInsert, ID: id, Name: name, Image: &img}, 0)
}

// Delete removes the image with the given id.
func (db *DB) Delete(id string) error {
	return db.mutate(context.Background(), wal.Record{Op: wal.OpDelete, ID: id}, 0)
}

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

// InsertObject adds an object to a stored image, reindexing it; the
// update is rejected if the result no longer converts.
func (db *DB) InsertObject(id string, o core.Object) error {
	return db.mutate(context.Background(), wal.Record{Op: wal.OpInsertObject, ID: id, Object: &o}, 0)
}

// DeleteObject removes a labelled object from a stored image, reindexing.
func (db *DB) DeleteObject(id, label string) error {
	return db.mutate(context.Background(), wal.Record{Op: wal.OpDeleteObject, ID: id, Label: label}, 0)
}

func copyEntry(e *Entry) Entry {
	return Entry{ID: e.ID, Name: e.Name, Image: e.Image.Clone(), BE: e.BE.Clone()}
}

// Scorer grades a database entry against a query; higher is more similar.
// The query is supplied both as image and as precomputed BE-string so
// scorers pay conversion once per search, not per entry.
type Scorer func(query core.Image, queryBE core.BEString, e Entry) float64

// BEScorer ranks by the paper's modified-LCS similarity (harmonic score).
func BEScorer() Scorer {
	return func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.Evaluate(queryBE, e.BE).Key()
	}
}

// InvariantScorer ranks by the best BE-LCS score across the given
// transforms of the query (nil means all eight of the dihedral group).
func InvariantScorer(transforms []core.Transform) Scorer {
	return func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.EvaluateInvariant(queryBE, e.BE, transforms).Key()
	}
}

// TypeSimScorer ranks by the clique-based type-i similarity, normalised by
// the query object count — the 2-D string family baseline.
func TypeSimScorer(level typesim.Level) Scorer {
	return func(query core.Image, _ core.BEString, e Entry) float64 {
		return typesim.NormalizedScore(typesim.Similarity(query, e.Image, level), query)
	}
}

// SymbolsOnlyScorer is the ablation scorer: BE-LCS with dummies stripped.
func SymbolsOnlyScorer() Scorer {
	return func(_ core.Image, queryBE core.BEString, e Entry) float64 {
		return similarity.EvaluateSymbolsOnly(queryBE, e.BE).Key()
	}
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
