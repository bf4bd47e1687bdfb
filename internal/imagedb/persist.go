package imagedb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bestring/internal/fsutil"
	"bestring/internal/wal"
)

// snapshotJSON is the on-disk format: a versioned list of entries.
type snapshotJSON struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// snapshotVersion is bumped on incompatible format changes.
const snapshotVersion = 1

// Save writes the database as JSON. Entries appear in insertion order.
// The snapshot is pinned once, so the bytes written are one state the
// database actually passed through (never half of a bulk batch), and
// concurrent writers are never blocked — Save holds no lock at all.
func (db *DB) Save(w io.Writer) error {
	return saveEntries(w, db.current.Load().orderedEntries())
}

// saveEntries writes a versioned JSON snapshot of the given entries —
// the shared encoding behind DB.Save and the store's checkpointer (which
// pins a version and encodes entirely outside the writer lock). The
// bytes are those of encoding a snapshotJSON with two-space indentation,
// produced one entry at a time: encoding/json renders a whole value into
// memory before it writes the first byte, and a checkpoint that fires
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
func (db *DB) loadEntries(entries []Entry, wrap string) error {
	items := make([]BulkItem, len(entries))
	for i, e := range entries {
		items[i] = BulkItem{ID: e.ID, Name: e.Name, Image: e.Image}
	}
	mu, err := db.prepare(context.Background(), wal.Record{Op: wal.OpBulk, Items: items}, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", wrap, err)
	}
	for i, e := range entries {
		if len(e.BE.X) > 0 && !mu.sts[i].BE.Equal(e.BE) {
			return fmt.Errorf("%s: entry %q: stored BE-string does not match its image", wrap, e.ID)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	m := db.begin()
	if err := m.apply(mu); err != nil {
		return fmt.Errorf("%s: %w", wrap, err)
	}
	db.publish(m) // the whole commit tail of a volatile engine
	return nil
}

// Load reads a database snapshot written by Save.
func Load(r io.Reader) (*DB, error) {
	var snap snapshotJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("load image db: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("load image db: unsupported snapshot version %d", snap.Version)
	}
	db := New()
	if err := db.loadEntries(snap.Entries, "load image db"); err != nil {
		return nil, err
	}
	return db, nil
}

// SaveFile writes the database to a file path atomically: the snapshot
// is written to a temp file in the same directory, fsynced and renamed
// over path, so a crash mid-save can never clobber the previous good
// snapshot.
func (db *DB) SaveFile(path string) error {
	if err := fsutil.AtomicWriteFile(path, db.Save); err != nil {
		return fmt.Errorf("save image db: %w", err)
	}
	return nil
}

// LoadFile reads a database from a file path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load image db: %w", err)
	}
	defer f.Close()
	return Load(f)
}
