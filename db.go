package bestring

import (
	"io"

	"bestring/internal/baseline/typesim"
	"bestring/internal/imagedb"
)

// Database types, re-exported.
type (
	// DB is the concurrency-safe symbolic-image database with ranked
	// search: volatile from NewDB/LoadDB, durable (write-ahead log,
	// checkpoints, recovery) from OpenStore, with one API either way.
	DB = imagedb.DB
	// Entry is one stored image with its BE-string index.
	Entry = imagedb.Entry
	// Scorer ranks a database entry against a query.
	Scorer = imagedb.Scorer
	// DBStats describes shard occupancy of a DB.
	DBStats = imagedb.Stats
	// Snapshot is a pinned, immutable view of a DB at one epoch: every
	// read on it — Get, Query, QueryIter, pagination — is lock-free and
	// perfectly repeatable whatever concurrent writers do. Obtain one
	// with DB.Snapshot (one atomic load; the data is shared
	// copy-on-write, not copied).
	Snapshot = imagedb.Snapshot
	// TypeLevel selects the strictness of the baseline type-i similarity.
	TypeLevel = typesim.Level
)

// Baseline similarity levels (the 2-D string family's type-0/1/2).
const (
	Type0 = typesim.Type0
	Type1 = typesim.Type1
	Type2 = typesim.Type2
)

// Database errors.
var (
	ErrNotFound  = imagedb.ErrNotFound
	ErrDuplicate = imagedb.ErrDuplicate
)

// NewDB returns an empty volatile image database with the default shard
// count, max(GOMAXPROCS, 16).
func NewDB() *DB { return imagedb.New() }

// NewDBSharded returns an empty volatile image database with an explicit
// shard count (0 means max(GOMAXPROCS, 16)). Shards are the
// copy-on-write unit of a commit and the fan-out of a scan; writes
// serialise on one mutex whatever the count, and shard count does not
// affect search results.
func NewDBSharded(shards int) *DB { return imagedb.NewSharded(shards) }

// LoadDB reads a database snapshot written by DB.Save.
func LoadDB(r io.Reader) (*DB, error) { return imagedb.Load(r) }

// LoadDBFile reads a database snapshot from a file.
func LoadDBFile(path string) (*DB, error) { return imagedb.LoadFile(path) }

// BEScorer ranks by the paper's modified-LCS similarity (the default).
func BEScorer() Scorer { return imagedb.BEScorer() }

// InvariantScorer ranks by the best BE-LCS score across query transforms
// (nil means all eight).
func InvariantScorer(transforms []Transform) Scorer {
	return imagedb.InvariantScorer(transforms)
}

// TypeSimScorer ranks with the clique-based type-i baseline.
func TypeSimScorer(level TypeLevel) Scorer { return imagedb.TypeSimScorer(level) }

// SymbolsOnlyScorer is the dummy-stripped ablation scorer.
func SymbolsOnlyScorer() Scorer { return imagedb.SymbolsOnlyScorer() }
