package imagedb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bestring/internal/wal"
)

// SnapshotInfo describes one checkpoint snapshot file of a store.
type SnapshotInfo struct {
	File    string `json:"file"`
	LSN     uint64 `json:"lsn"` // records covered through this LSN
	Bytes   int64  `json:"bytes"`
	Entries int    `json:"entries"`       // -1 when the snapshot is unreadable
	Err     string `json:"err,omitempty"` // load failure, if any
}

// StoreInspection is a read-only report on a store directory: its
// snapshots, its WAL segments and the record mix awaiting replay. It is
// safe to produce while another process serves the store — nothing is
// repaired, truncated or pruned.
type StoreInspection struct {
	Dir       string            `json:"dir"`
	Snapshots []SnapshotInfo    `json:"snapshots"`
	Segments  []wal.SegmentInfo `json:"segments"`
	// RecordOps counts the decodable WAL records by operation.
	RecordOps map[string]int `json:"recordOps"`
	// Records is the total decodable WAL record count; Replayable is the
	// subset newer than the newest loadable snapshot — what the next
	// OpenStore will apply.
	Records    int `json:"records"`
	Replayable int `json:"replayable"`
	// GroupSubRecords counts sub-records inside group frames, and
	// LogicalMutations the individual mutations the log describes (group
	// and bulk records expanded) — the audit view of a batched log, where
	// one frame may carry dozens of acknowledged writes.
	GroupSubRecords  int    `json:"groupSubRecords"`
	LogicalMutations int    `json:"logicalMutations"`
	LastLSN          uint64 `json:"lastLSN"`
	// SnapshotLSN is the LSN of the newest loadable snapshot (0: none).
	SnapshotLSN uint64 `json:"snapshotLSN"`
}

// InspectStore examines a store directory without opening it for writing.
func InspectStore(dataDir string) (*StoreInspection, error) {
	if _, err := os.Stat(dataDir); err != nil {
		return nil, fmt.Errorf("inspect store: %w", err)
	}
	ins := &StoreInspection{Dir: dataDir, RecordOps: make(map[string]int)}

	names, err := listSnapshots(dataDir)
	if err != nil {
		return nil, fmt.Errorf("inspect store: %w", err)
	}
	sort.Strings(names) // report oldest first
	for _, name := range names {
		si := SnapshotInfo{File: name}
		si.LSN, _ = parseSnapshotName(name)
		if info, err := os.Stat(filepath.Join(dataDir, name)); err == nil {
			si.Bytes = info.Size()
		}
		db, err := loadSnapshot(filepath.Join(dataDir, name))
		if err != nil {
			si.Entries = -1
			si.Err = err.Error()
		} else {
			si.Entries = db.Len()
			if si.LSN > ins.SnapshotLSN {
				ins.SnapshotLSN = si.LSN
			}
		}
		ins.Snapshots = append(ins.Snapshots, si)
	}

	ins.Segments, err = wal.Inspect(dataDir, func(rec wal.Record) {
		ins.RecordOps[rec.Op]++
		ins.Records++
		if rec.Op == wal.OpGroup {
			ins.GroupSubRecords += len(rec.Subs)
		}
		ins.LogicalMutations += rec.Mutations()
		if rec.LSN > ins.SnapshotLSN {
			ins.Replayable++
		}
		if rec.LSN > ins.LastLSN {
			ins.LastLSN = rec.LSN
		}
	})
	if err != nil {
		return nil, fmt.Errorf("inspect store: %w", err)
	}
	if ins.SnapshotLSN > ins.LastLSN {
		ins.LastLSN = ins.SnapshotLSN
	}
	return ins, nil
}
