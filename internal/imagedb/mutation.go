package imagedb

import (
	"context"
	"errors"
	"fmt"

	"bestring/internal/core"
	"bestring/internal/wal"
)

// This file is the write path. Every mutation — whichever door it came
// through: a DB mutator (volatile or durable), a snapshot load, an
// import chunk, recovery replay or a replicated record on a follower —
// is one value, the WAL record that describes it plus what was derived
// from it ahead of the writer lock, and passes through the same steps:
//
//	prepare — lock-free: id/shape validation, core.Convert, image
//	          clone, signature and coded axes; batches convert in
//	          parallel and pack into one arena slab (prepareBulk).
//	apply   — under the writer lock: validate completely against the
//	          txn's working state, then install. The only caller of
//	          txn.add/remove/replace.
//	commit  — the commit tail DB.commitLocked: on a durable engine WAL
//	          append, LSN accounting, publish, visibility and checkpoint
//	          trigger; on a volatile one, publish alone.

// mutation is one write in flight.
type mutation struct {
	// rec describes the mutation exactly as the WAL logs it (LSN unset).
	rec wal.Record
	// sts are the entries prepare built: one for an insert, one per item
	// for a bulk/import batch (arena-packed), none for the ops
	// that can only be resolved against the state they apply to.
	sts []*stored
}

// prepare is the lock-free half of every mutation. It validates what
// needs no database state and pays the CPU-bound derivations, so
// concurrent writers convert in parallel and the writer lock covers map
// installs only. parallelism bounds a batch's conversion workers
// (<= 0 means GOMAXPROCS).
func (db *DB) prepare(ctx context.Context, rec wal.Record, parallelism int) (*mutation, error) {
	mu := &mutation{rec: rec}
	switch rec.Op {
	case wal.OpInsert:
		if rec.Image == nil {
			return nil, errors.New("record has no image")
		}
		if rec.ID == "" {
			return nil, ErrEmptyID
		}
		be, err := core.Convert(*rec.Image)
		if err != nil {
			return nil, fmt.Errorf("insert %q: %w", rec.ID, err)
		}
		st := newStored(rec.ID, rec.Name, rec.Image.Clone(), be, 0)
		st.index(db.labelDict())
		mu.sts = []*stored{st}
		mu.rec.Image = &st.Image // log the clone the entry holds, not the caller's image
	case wal.OpInsertObject:
		if rec.Object == nil {
			return nil, errors.New("record has no object")
		}
	case wal.OpDelete, wal.OpDeleteObject:
	case wal.OpBulk, wal.OpImport:
		sts, err := db.prepareBulk(ctx, rec.Items, parallelism)
		if err != nil {
			return nil, err
		}
		mu.sts = sts
	default:
		return nil, fmt.Errorf("unknown op %q", rec.Op)
	}
	return mu, nil
}

// presenceErr is the id-presence rule of each op: the error rec fails
// with when an entry under rec.ID does (exists) or does not exist, nil
// when presence is as the op needs it.
func presenceErr(rec *wal.Record, exists bool) error {
	switch rec.Op {
	case wal.OpInsert:
		if exists {
			return fmt.Errorf("insert %q: %w", rec.ID, ErrDuplicate)
		}
	case wal.OpDelete:
		if !exists {
			return fmt.Errorf("delete %q: %w", rec.ID, ErrNotFound)
		}
	case wal.OpInsertObject, wal.OpDeleteObject:
		if !exists {
			return fmt.Errorf("update %q: %w", rec.ID, ErrNotFound)
		}
	}
	return nil
}

// lookup finds the stored entry for id in the transaction's working
// state — the base version overlaid with this transaction's changes.
func (m *txn) lookup(id string) (*stored, bool) {
	st, ok := m.shards[shardIndex(id, len(m.shards))].entries[id]
	return st, ok
}

// apply validates the mutation against the transaction's working state
// and, on success, installs it. The txn is the batch's view of the
// database: an insert earlier in a commit group (or a replayed log tail)
// is visible to a later delete in the same txn. Validation is complete
// before the first txn change, so a failing mutation leaves the txn
// untouched — what lets a commit group exclude it and carry on, and what
// makes validate-before-log hold: a record enters the WAL only after
// apply accepted it against the state the log prefix produces.
func (m *txn) apply(mu *mutation) error {
	rec := &mu.rec
	cur, exists := m.lookup(rec.ID)
	if err := presenceErr(rec, exists); err != nil {
		return err
	}
	switch rec.Op {
	case wal.OpInsert, wal.OpBulk, wal.OpImport:
		for _, st := range mu.sts { // (an insert's one entry passed presenceErr above)
			if _, exists := m.lookup(st.ID); exists {
				return fmt.Errorf("bulk insert %q: %w", st.ID, ErrDuplicate)
			}
		}
		for _, st := range mu.sts {
			st.seq = m.db.seq.Add(1)
			m.add(st)
		}
	case wal.OpDelete:
		m.remove(cur)
	case wal.OpInsertObject, wal.OpDeleteObject:
		// Object edits resolve against the working state (which may hold
		// earlier mutations of the same txn), so the new image converts
		// here, not in prepare. The entry is replaced, never mutated:
		// published snapshots hold *stored pointers, so an entry must stay
		// immutable once any version references it (copy-on-write).
		var next core.Image
		if rec.Op == wal.OpInsertObject {
			next = cur.Image.WithObject(*rec.Object)
		} else {
			var found bool
			if next, found = cur.Image.WithoutObject(rec.Label); !found {
				return fmt.Errorf("delete object %q from %q: %w", rec.Label, rec.ID, ErrNotFound)
			}
		}
		be, err := core.Convert(next)
		if err != nil {
			return fmt.Errorf("update %q: %w", rec.ID, err)
		}
		m.replace(cur, newStored(rec.ID, cur.Name, next, be, cur.seq))
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// replay prepares and applies one logged record — the door recovery and
// the replication follower share. Records were validated against the
// then-current state before they were logged, so a record that fails
// here means the log and the state disagree; the caller surfaces that
// (and publishes nothing) instead of guessing.
func (m *txn) replay(rec *wal.Record) error {
	if rec.Op != wal.OpGroup {
		mu, err := m.db.prepare(context.Background(), *rec, 0)
		if err != nil {
			return err
		}
		return m.apply(mu)
	}
	// One commit group: the frame's CRC guarantees it arrived whole, so
	// replay applies every sub-mutation (failed callers were excluded
	// before the frame was written).
	if len(rec.Subs) == 0 {
		return errors.New("empty group record")
	}
	for i := range rec.Subs {
		sub := &rec.Subs[i]
		if sub.Op == wal.OpGroup {
			return fmt.Errorf("group sub-record %d: nested group", i)
		}
		if err := m.replay(sub); err != nil {
			return fmt.Errorf("group sub-record %d (%s %q): %w", i, sub.Op, sub.ID, err)
		}
	}
	return nil
}

// sizeHint conservatively over-estimates the record's encoded WAL size.
func sizeHint(rec *wal.Record) int {
	n := 96 + 2*(len(rec.ID)+len(rec.Name)+len(rec.Label)+len(rec.Key))
	if rec.Image != nil {
		n += imageSizeHint(rec.Image)
	}
	if rec.Object != nil {
		n += objectSizeHint(rec.Object)
	}
	for i := range rec.Items {
		n += itemSizeHint(&rec.Items[i])
	}
	return n
}

// itemSizeHint over-estimates one batch item's encoded JSON size.
func itemSizeHint(it *BulkItem) int {
	return 96 + 2*(len(it.ID)+len(it.Name)) + imageSizeHint(&it.Image)
}

// imageSizeHint over-estimates an image's encoded JSON size.
func imageSizeHint(img *core.Image) int {
	n := 128
	for i := range img.Objects {
		n += objectSizeHint(&img.Objects[i])
	}
	return n
}

func objectSizeHint(o *core.Object) int { return 160 + 2*len(o.Label) }
