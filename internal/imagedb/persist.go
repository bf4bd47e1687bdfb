package imagedb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bestring/internal/wal"
)

// snapshotJSON is the on-disk format: a versioned list of entries.
type snapshotJSON struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// snapshotVersion is bumped on incompatible format changes.
const snapshotVersion = 1

// saveEntries writes a versioned JSON snapshot of the given entries —
// the checkpoint file's format. The checkpointer pins a version and
// encodes it entirely outside the writer lock, so concurrent writers are
// never blocked, and the bytes are one state the database actually
// passed through (never half of a bulk batch). The bytes are those of
// encoding a snapshotJSON with two-space indentation, produced one entry
// at a time: encoding/json renders a whole value into memory before it
// writes the first byte, and a checkpoint that fires
// under write load must not hold a second copy of the corpus as text.
func saveEntries(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"version\": %d,\n  \"entries\": [", snapshotVersion)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("    ", "  ")
	for i := range entries {
		buf.Reset()
		if err := enc.Encode(&entries[i]); err != nil {
			return fmt.Errorf("save image db: %w", err)
		}
		sep := ",\n    "
		if i == 0 {
			sep = "\n    "
		}
		bw.WriteString(sep)
		bw.Write(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	if len(entries) > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("save image db: %w", err)
	}
	return nil
}

// loadEntries validates and installs a decoded snapshot as one published
// version — a bulk batch through prepare, apply and publish — with one
// check of its own: every entry's BE-string is re-derived from its image
// and cross-checked against the stored one, so a corrupted or hand-edited
// snapshot cannot desynchronise index and data. One version for the
// whole load keeps recovery linear — per-entry Insert would copy the
// target shard once per entry. Loading restores state; it is not a
// commit, so it skips the commit group and its counters.
func (db *DB) loadEntries(entries []Entry) error {
	items := make([]BulkItem, len(entries))
	for i, e := range entries {
		items[i] = BulkItem{ID: e.ID, Name: e.Name, Image: e.Image}
	}
	mu, err := db.prepare(context.Background(), wal.Record{Op: wal.OpBulk, Items: items}, 0)
	if err != nil {
		return fmt.Errorf("load image db: %w", err)
	}
	for i, e := range entries {
		if len(e.BE.X) > 0 && !mu.sts[i].BE.Equal(e.BE) {
			return fmt.Errorf("load image db: entry %q: stored BE-string does not match its image", e.ID)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	m := db.begin()
	if err := m.apply(mu); err != nil {
		return fmt.Errorf("load image db: %w", err)
	}
	db.publish(m) // the whole commit tail of a volatile engine
	return nil
}

// loadSnapshot reads a checkpoint file written by saveEntries into a new
// volatile DB with the default shard count. A file of another format
// version, or one whose stored BE-strings disagree with its images, is
// refused.
func loadSnapshot(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load image db: %w", err)
	}
	defer f.Close()
	var snap snapshotJSON
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("load image db: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("load image db: unsupported snapshot version %d", snap.Version)
	}
	db := New()
	if err := db.loadEntries(snap.Entries); err != nil {
		return nil, err
	}
	return db, nil
}
