package imagedb

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bestring/internal/fsutil"
	"bestring/internal/wal"
)

// This file is the store's replication surface (DESIGN.md section 9).
// A follower store (StoreOptions.Replica) never originates mutations:
// its state advances only through ApplyReplicatedFrames, which replays
// WAL records shipped from a primary through the same prepare → apply →
// commit-tail path local mutations use — one transaction, one append to
// the follower's OWN log (the primary's frames verbatim, preserving
// LSNs), one fsync, one published MVCC version.
// The primary side exposes the durable horizon (DurableLSN, WaitDurable,
// TailWAL) the internal/repl server streams from, and the prune floor
// that keeps segments a connected follower still needs.

// ErrReadOnlyReplica is returned by mutation methods on a follower
// store. Writes belong on the primary; the HTTP layer turns this into a
// redirect.
var ErrReadOnlyReplica = errors.New("store is a read-only replica")

// storeIDFile holds the store's random identity, minted on first open.
// Two stores share an id only if one was replicated (or copied) from
// the other — which is exactly the question a follower must answer
// before applying a stream: "is this primary's history my history?"
const storeIDFile = "STOREID"

// loadOrCreateStoreID reads the store identity in dir, minting and
// durably persisting a fresh one for a new store.
func loadOrCreateStoreID(dir string) (string, error) {
	path := filepath.Join(dir, storeIDFile)
	if data, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(data))
		if id != "" {
			return id, nil
		}
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("mint store id: %w", err)
	}
	id := hex.EncodeToString(raw[:])
	err := fsutil.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := fmt.Fprintln(w, id)
		return werr
	})
	if err != nil {
		return "", fmt.Errorf("write store id: %w", err)
	}
	return id, nil
}

// StoreID returns the store's durable random identity ("" on a volatile
// engine).
func (db *DB) StoreID() string { return db.id }

// Replica reports whether the store is a read-only replication follower
// (always false on a volatile engine).
func (db *DB) Replica() bool { return db.opts.Replica }

// DurableLSN returns the highest LSN on stable storage — the horizon the
// replication stream ships to followers. A volatile engine logs nothing
// and returns 0.
func (db *DB) DurableLSN() uint64 {
	if db.log == nil {
		return 0
	}
	return db.log.DurableLSN()
}

// OldestLSN returns the first LSN still retained in the WAL: a follower
// behind it cannot catch up from this store and must be re-seeded. A
// volatile engine returns 0.
func (db *DB) OldestLSN() uint64 {
	if db.log == nil {
		return 0
	}
	return db.log.OldestLSN()
}

// AppliedLSN returns the LSN of the last record applied to this store —
// on a follower, how far it has replayed the primary's history. A
// volatile engine returns 0.
func (db *DB) AppliedLSN() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.appliedLSN
}

// VisibleLSN returns the highest LSN whose effects are observable in a
// published MVCC version: the read-your-writes horizon. A volatile
// engine returns 0.
func (db *DB) VisibleLSN() uint64 { return db.visibleLSN.Load() }

// WaitVisible blocks until VisibleLSN() >= lsn, the context is done, or
// the DB closes. It is the wait half of min_lsn read routing. A volatile
// engine's VisibleLSN stays 0, so there it returns nil for lsn 0 and
// ErrNotDurable at once for any other lsn.
func (db *DB) WaitVisible(ctx context.Context, lsn uint64) error {
	for {
		if db.visibleLSN.Load() >= lsn {
			return nil
		}
		if db.log == nil {
			return ErrNotDurable
		}
		db.mu.Lock()
		if db.visibleLSN.Load() >= lsn {
			db.mu.Unlock()
			return nil
		}
		if db.closed {
			db.mu.Unlock()
			return ErrStoreClosed
		}
		ch := db.visibleCh
		db.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// TailWAL streams this store's WAL records after the given LSN (see
// wal.Tailer) — the primary side of a replication feed. A volatile
// engine has no log to tail and returns nil.
func (db *DB) TailWAL(afterLSN uint64) *wal.Tailer {
	if db.log == nil {
		return nil
	}
	return db.log.Tail(afterLSN)
}

// SetPruneFloor installs fn as the checkpoint prune cap: WAL segments
// holding records with LSN > fn() survive checkpoints so connected
// followers can still stream them. fn must be safe for concurrent use
// and should return the minimum acked LSN across followers (or a value
// >= the last LSN when nothing constrains pruning). Pass nil to remove
// the floor.
func (db *DB) SetPruneFloor(fn func() uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pruneFloor = fn
}

// ApplyReplicatedFrames applies a run of consecutive primary WAL
// records to a follower store. frames[i] must be the verified wire frame
// of recs[i] (wal.ReadFrameRaw returns both); the records must continue
// this store's LSN sequence exactly (the primary streams them in order;
// wal.AppendBatchFrames re-verifies). The batch is all-or-nothing and
// follows the same durability-before-visibility order as a local
// commit group:
//
//  1. prepare + apply every record to ONE copy-on-write transaction
//     (txn.replay, the door recovery uses too; batches convert in
//     parallel) — a record that fails leaves the store untouched and
//     poisons the stream (the follower disconnects rather than diverge);
//  2. append the frames verbatim to the follower's own WAL as one batch
//     with one fsync — "the follower's log holds the primary's bytes" is
//     literal — so a follower crash recovers locally and resumes from
//     its own log;
//  3. publish the transaction as one MVCC version and mark it visible.
//
// Steps 2 and 3 are the store's one commit tail (commitLocked). The
// group-commit batcher is bypassed (a follower has no concurrent
// writers to coalesce — the stream is already serialised); reads on a
// follower see exactly the states the primary published,
// batch-granular.
func (db *DB) ApplyReplicatedFrames(recs []wal.Record, frames [][]byte) error {
	if !db.opts.Replica {
		return errors.New("ApplyReplicatedFrames on a non-replica store")
	}
	if len(frames) != len(recs) {
		return fmt.Errorf("%d frames for %d records", len(frames), len(recs))
	}
	if len(recs) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrStoreClosed
	}
	m := db.begin()
	for i := range recs {
		if err := m.replay(&recs[i]); err != nil {
			return fmt.Errorf("replicated record lsn %d (%s %q): %w",
				recs[i].LSN, recs[i].Op, recs[i].ID, err)
		}
	}
	if _, err := db.commitLocked(m, recs, frames); err != nil {
		return err
	}
	// Remember replicated import chunk keys: should this follower be
	// promoted, a resumed import against it skips the chunks it already
	// replayed.
	for i := range recs {
		if recs[i].Op == wal.OpImport && recs[i].Key != "" {
			db.noteImportKey(recs[i].Key)
		}
	}
	return nil
}
