package bestring

import (
	"time"

	"bestring/internal/repl"
)

// Replication types, re-exported. A primary streams its WAL — sealed
// segments for catch-up, then live tailing — over a versioned HTTP
// protocol; a follower replays the records through the same
// validate→apply machinery into its own log and MVCC versions, serving
// the full read surface while refusing local writes. See DESIGN.md
// section 9.
type (
	// ReplicationPrimary serves the stream and ack endpoints of one
	// store and pins WAL retention to the slowest follower.
	ReplicationPrimary = repl.Primary
	// ReplicationFollower keeps a replica store in sync with a primary:
	// stream, batch, apply, ack, reconnect-with-resume.
	ReplicationFollower = repl.Follower
	// ReplFollowerInfo is one follower's registry entry on a primary.
	ReplFollowerInfo = repl.FollowerInfo
	// ReplFollowerStatus describes a follower's sync loop.
	ReplFollowerStatus = repl.FollowerStatus
)

// Replication protocol constants (wire version and endpoint paths).
const (
	ReplProtoVersion = repl.ProtoVersion
	ReplStreamPath   = repl.StreamPath
	ReplAckPath      = repl.AckPath
)

// Replication failure modes a follower cannot retry through.
var (
	// ErrReplDiverged: the follower's recorded history belongs to a
	// different primary (or to no primary at all).
	ErrReplDiverged = repl.ErrDiverged
	// ErrReplSnapshotNeeded: the follower's resume position precedes the
	// primary's oldest retained WAL segment.
	ErrReplSnapshotNeeded = repl.ErrSnapshotNeeded
)

// NewReplicationPrimary wraps a durable DB (from OpenStore) as a
// replication primary. Checkpoints on the store stop pruning WAL
// segments a registered follower has not acknowledged. heartbeat <= 0
// uses the default (1 second). A volatile DB yields ErrNotDurable.
func NewReplicationPrimary(store *DB, heartbeat time.Duration) (*ReplicationPrimary, error) {
	return repl.NewPrimary(store, heartbeat)
}

// NewReplicationFollower builds the sync loop for a replica store
// (opened with StoreOptions.Replica) against the primary at primaryURL.
// batchMax <= 0 uses the default (256 records per applied batch). A
// volatile DB yields ErrNotDurable.
func NewReplicationFollower(store *DB, primaryURL string, batchMax int) (*ReplicationFollower, error) {
	return repl.NewFollower(store, primaryURL, batchMax)
}
