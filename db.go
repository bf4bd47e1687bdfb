package bestring

import "bestring/internal/imagedb"

// Database types, re-exported.
type (
	// DB is the concurrency-safe symbolic-image database with ranked
	// search: volatile (in memory only) from NewDB, durable (write-ahead
	// log, checkpoints, recovery) from OpenStore, with one API either way.
	// Scenes move between databases as NDJSON (NDJSONScenes, DB.Import).
	DB = imagedb.DB
	// Entry is one stored image with its BE-string index.
	Entry = imagedb.Entry
	// DBStats describes shard occupancy of a DB.
	DBStats = imagedb.Stats
	// Snapshot is a pinned, immutable view of a DB at one epoch: every
	// read on it — Get, Query, QueryIter, pagination — is lock-free and
	// perfectly repeatable whatever concurrent writers do. Obtain one
	// with DB.Snapshot (one atomic load; the data is shared
	// copy-on-write, not copied).
	Snapshot = imagedb.Snapshot
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
