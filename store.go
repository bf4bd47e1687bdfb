package bestring

import (
	"bestring/internal/imagedb"
	"bestring/internal/wal"
)

// Durable-store types, re-exported. OpenStore returns a durable DB: one
// holding a segmented write-ahead log and checkpointed snapshots, so
// every mutation is framed and fsynced (per policy) before it is
// published, and a reopen recovers the state a crash left behind — the
// latest valid snapshot plus a replay of the newer log tail. The query,
// search and write API is the DB's, unchanged; see DESIGN.md section 5.
type (
	// StoreOptions tune OpenStore (fsync policy, segment size, shard
	// count, checkpoint threshold).
	StoreOptions = imagedb.StoreOptions
	// StoreStats describes a store's WAL and checkpoint state.
	StoreStats = imagedb.StoreStats
	// StoreInspection is InspectStore's read-only report on a store
	// directory.
	StoreInspection = imagedb.StoreInspection
	// FsyncPolicy selects when acknowledged mutations reach stable
	// storage.
	FsyncPolicy = imagedb.FsyncPolicy
	// CommitStats are a store's group-commit counters (groups committed,
	// mutations coalesced, rejected requests, largest group).
	CommitStats = imagedb.CommitStats
)

// DefaultCommitBatch is the default group-commit size cap: concurrent
// mutations coalesce into one WAL frame and share one fsync, at most
// this many to a group. See DESIGN.md section 5 and EXPERIMENTS.md E11b.
const DefaultCommitBatch = imagedb.DefaultCommitBatch

// Fsync policies: every append (safest, the default), a background
// interval (bounded loss window), or never (OS-paced, fastest). See
// EXPERIMENTS.md E11 for the throughput trade.
const (
	FsyncAlways   = imagedb.FsyncAlways
	FsyncInterval = imagedb.FsyncInterval
	FsyncNever    = imagedb.FsyncNever
)

// ErrStoreClosed is returned by mutations on a closed DB.
var ErrStoreClosed = imagedb.ErrStoreClosed

// ErrNotDurable is returned where durability is required of a volatile
// DB (one made by NewDB or NewDBSharded rather than OpenStore):
// Checkpoint, Sync and the replication constructors.
var ErrNotDurable = imagedb.ErrNotDurable

// ErrRecordTooLarge matches (errors.Is) a mutation whose encoded WAL
// record would exceed the log's payload bound.
var ErrRecordTooLarge = wal.ErrRecordTooLarge

// ErrReadOnlyReplica is returned by mutation methods on a follower
// store (StoreOptions.Replica): writes belong on the primary.
var ErrReadOnlyReplica = imagedb.ErrReadOnlyReplica

// OpenStore opens (creating if necessary) the durable store in dataDir
// and recovers its state into a durable DB. A torn final WAL record — a
// crash mid-append — is truncated and tolerated; interior corruption
// aborts with a descriptive error. Close the DB to flush cleanly.
func OpenStore(dataDir string, opts StoreOptions) (*DB, error) {
	return imagedb.OpenStore(dataDir, opts)
}

// ParseFsyncPolicy reads a policy name: "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	return imagedb.ParseFsyncPolicy(s)
}

// InspectStore examines a store directory without opening it for
// writing: snapshots, WAL segments, record counts and tail condition.
func InspectStore(dataDir string) (*StoreInspection, error) {
	return imagedb.InspectStore(dataDir)
}
