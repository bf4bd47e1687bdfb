// Package repl implements WAL-shipping replication between bestring
// stores (DESIGN.md section 9): a primary-side HTTP server that streams
// write-ahead-log records — sealed segments for catch-up, then live
// tailing of the open segment — and a follower loop that replays them
// through the store's validate→apply path into its own log and MVCC
// versions.
//
// Protocol (version 1). A follower opens
//
//	GET /repl/v1/stream?after=<lsn>&follower=<id>
//
// and the primary responds with a chunked transfer whose body is a
// sequence of WAL frames in the log's own framing (uint32 length,
// uint32 CRC32C, JSON record) — the bytes a follower appends to its own
// log are identical to the bytes the primary's log holds. Response
// headers carry the primary's identity and horizon:
//
//	X-Bestring-Repl-Proto:  protocol version ("1")
//	X-Bestring-Store-Id:    the primary's STOREID
//	X-Bestring-Durable-Lsn: the durable LSN at response time
//
// Only durable records are shipped (see wal.Log's durable marker): a
// follower must never hold a record its primary could still lose.
// While the stream is idle the primary emits a heartbeat record
// (Op "repl/heartbeat", LSN = current durable LSN, not part of the
// log's sequence) so followers can distinguish "no writes" from a dead
// connection and surface their lag.
//
// Followers acknowledge applied LSNs out of band:
//
//	POST /repl/v1/ack?follower=<id>&lsn=<applied>
//
// Acks gate WAL pruning on the primary — checkpoint pruning never
// removes a segment a registered follower still needs (the retention
// floor) — and feed the lag numbers in /healthz.
//
// Status codes: 410 Gone when `after` precedes the oldest retained LSN
// (the follower must re-seed from a snapshot), 409 Conflict when the
// follower's recorded primary identity does not match this store (a
// diverged or foreign follower must not be fed), 400 for a malformed
// request.
package repl

import (
	"errors"

	"bestring/internal/imagedb"
)

// Protocol constants shared by the primary and follower sides.
const (
	// ProtoVersion is the replication wire-protocol version.
	ProtoVersion = "1"

	// StreamPath and AckPath are the primary's endpoints.
	StreamPath = "/repl/v1/stream"
	AckPath    = "/repl/v1/ack"

	// HeaderProto, HeaderStoreID and HeaderDurableLSN are the stream
	// response headers.
	HeaderProto      = "X-Bestring-Repl-Proto"
	HeaderStoreID    = "X-Bestring-Store-Id"
	HeaderDurableLSN = "X-Bestring-Durable-Lsn"

	// OpHeartbeat is the keepalive pseudo-record op. Heartbeats carry the
	// primary's durable LSN in their LSN field, consume no sequence
	// number, and are never written to any log.
	OpHeartbeat = "repl/heartbeat"
)

// ErrDiverged reports a follower whose recorded history does not belong
// to the primary it connected to: its PRIMARY marker (or non-empty log
// with no marker) disagrees with the primary's store identity. Syncing
// would silently interleave two unrelated histories, so the follower
// refuses and stays read-only on its last applied state.
var ErrDiverged = errors.New("repl: follower history diverged from primary")

// ErrSnapshotNeeded reports a follower whose resume position precedes
// the primary's oldest retained WAL segment: the log can no longer
// replay it forward and the follower must be re-seeded from a snapshot.
var ErrSnapshotNeeded = errors.New("repl: follower too far behind, re-seed from snapshot")

// ErrNotDurable reports an engine without a write-ahead log handed to
// NewPrimary or NewFollower: replication streams and replays the log,
// so both roles need an engine opened with imagedb.OpenStore.
var ErrNotDurable = imagedb.ErrNotDurable
