package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bestring/internal/core"
)

// testImage is a minimal valid image for record payloads.
func testImage(label string) core.Image {
	return core.NewImage(4, 4, core.Object{Label: label, Box: core.NewRect(0, 0, 1, 1)})
}

func appendN(t *testing.T, l *Log, n int, startID int) {
	t.Helper()
	for i := 0; i < n; i++ {
		img := testImage("A")
		rec := Record{Op: OpInsert, ID: fmt.Sprintf("img%04d", startID+i), Image: &img}
		if _, _, err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func replayAll(t *testing.T, dir string, after uint64) (recs []Record, last uint64) {
	t.Helper()
	last, err := Replay(dir, after, false, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, last
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	img := testImage("A")
	obj := core.Object{Label: "B", Box: core.NewRect(1, 1, 2, 2)}
	in := []Record{
		{Op: OpInsert, ID: "a", Name: "first", Image: &img},
		{Op: OpInsertObject, ID: "a", Object: &obj},
		{Op: OpDeleteObject, ID: "a", Label: "B"},
		{Op: OpBulk, Items: []BulkItem{{ID: "b", Image: testImage("C")}, {ID: "c", Image: testImage("D")}}},
		{Op: OpDelete, ID: "c"},
	}
	for i, rec := range in {
		lsn, n, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) || n <= frameHeaderLen {
			t.Fatalf("append %d: lsn=%d n=%d", i, lsn, n)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, last := replayAll(t, dir, 0)
	if last != 5 || len(recs) != 5 {
		t.Fatalf("last=%d records=%d, want 5/5", last, len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Op != in[i].Op || r.ID != in[i].ID {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if len(recs[3].Items) != 2 || recs[3].Items[0].ID != "b" {
		t.Fatalf("bulk items not preserved: %+v", recs[3].Items)
	}
	// afterLSN skips covered records but still reports the last LSN.
	recs, last = replayAll(t, dir, 3)
	if last != 5 || len(recs) != 2 || recs[0].LSN != 4 {
		t.Fatalf("after=3: last=%d records=%+v", last, recs)
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20, 0)
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("expected rotation at 256 bytes, got %d segments", s.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, last := replayAll(t, dir, 0)
	if last != 20 || len(recs) != 20 {
		t.Fatalf("replay after rotation: last=%d n=%d", last, len(recs))
	}
	// Reopen for append and continue the sequence.
	l, err = Open(dir, last+1, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, last = replayAll(t, dir, 0)
	if last != 25 || len(recs) != 25 {
		t.Fatalf("replay after reopen: last=%d n=%d", last, len(recs))
	}
}

// lastSegment returns the path of the highest-named segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final record short by 5 bytes: torn write.
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, last := replayAll(t, dir, 0)
	if last != 2 || len(recs) != 2 {
		t.Fatalf("torn tail: last=%d n=%d, want 2/2", last, len(recs))
	}
	// The tail must have been truncated in place so appends can resume.
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := info.Size(), int64(len(data)-len(frameOf(t, data, 2))); got != want {
		t.Fatalf("truncated size %d, want %d", got, want)
	}
	l, err = Open(dir, last+1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 99)
	l.Close()
	recs, last = replayAll(t, dir, 0)
	if last != 3 || recs[2].ID != "img0099" {
		t.Fatalf("append after truncation: last=%d recs=%+v", last, recs)
	}
}

// frameOf returns the bytes of the idx-th (0-based) frame in data.
func frameOf(t *testing.T, data []byte, idx int) []byte {
	t.Helper()
	off := 0
	for i := 0; ; i++ {
		if off+frameHeaderLen > len(data) {
			t.Fatalf("frame %d out of range", idx)
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + frameHeaderLen + length
		if i == idx {
			return data[off:end]
		}
		off = end
	}
}

func TestInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST record: a bad checksum with more
	// log after it cannot be a torn write.
	data[frameHeaderLen+4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, false, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Offset != 0 || ce.Reason != "checksum mismatch" {
		t.Fatalf("unexpected corruption detail: %+v", ce)
	}
}

func TestCorruptionInNonFinalSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 12, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("need >=2 segments, got %v (%v)", names, err)
	}
	// Truncate the FIRST segment: even a clean-looking cut is corruption
	// when later segments exist.
	seg := filepath.Join(dir, names[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, false, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
}

func TestMissingRecordsGapRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 12, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	if len(names) < 2 {
		t.Fatalf("need >=2 segments, got %v", names)
	}
	if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
		t.Fatal(err)
	}
	// The snapshot (afterLSN 0) does not cover the removed records.
	if _, err := Replay(dir, 0, false, nil); err == nil {
		t.Fatal("expected a missing-records error")
	}
}

func TestRemoveObsolete(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 12, 0)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	sealed := len(names) - 1
	if sealed < 2 {
		t.Fatalf("need >=2 sealed segments, got %d", sealed)
	}
	last := l.Stats().LastLSN
	if err := l.RemoveObsolete(last); err != nil {
		t.Fatal(err)
	}
	names, _ = listSegments(dir)
	if len(names) != 1 {
		t.Fatalf("want only the active segment left, got %v", names)
	}
	// Replay from a snapshot at `last` still works over the empty tail.
	recs, gotLast := replayAll(t, dir, last)
	if len(recs) != 0 || gotLast != last {
		t.Fatalf("replay after prune: recs=%d last=%d", len(recs), gotLast)
	}
	// And appending continues the sequence.
	appendN(t, l, 1, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, gotLast = replayAll(t, dir, last)
	if len(recs) != 1 || gotLast != last+1 {
		t.Fatalf("append after prune: recs=%d last=%d", len(recs), gotLast)
	}
}

func TestRemoveObsoletePartial(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 12, 0)
	names, _ := listSegments(dir)
	if len(names) < 3 {
		t.Fatalf("need >=3 segments, got %v", names)
	}
	// A checkpoint covering only the first segment must leave the rest.
	secondFirst, _ := parseSegmentName(names[1])
	if err := l.RemoveObsolete(secondFirst - 1); err != nil {
		t.Fatal(err)
	}
	got, _ := listSegments(dir)
	if len(got) != len(names)-1 || got[0] != names[1] {
		t.Fatalf("partial prune: had %v, got %v", names, got)
	}
	l.Close()
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		dirty := l.dirty
		l.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, last := replayAll(t, dir, 0); last != 3 {
		t.Fatalf("last=%d, want 3", last)
	}
}

func TestInspectReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 12, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	infos, err := Inspect(dir, func(Record) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	tail := infos[len(infos)-1]
	if tail.TornBytes == 0 {
		t.Fatalf("expected torn tail reported: %+v", tail)
	}
	// Inspect must not repair anything.
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(data)-2) {
		t.Fatal("Inspect modified the segment")
	}
	total := 0
	for _, si := range infos {
		total += si.Records
	}
	if total != count || count != 11 {
		t.Fatalf("records: infos=%d callback=%d, want 11", total, count)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// TestPolicyMarkerRewrittenOnlyOnChange pins that a reopen under the
// policy the marker already names leaves the marker file alone (no temp
// write, fsyncs and rename per open), while a different policy, a
// deleted marker or a garbled one each get a fresh marker that
// WrittenPolicy reads back.
func TestPolicyMarkerRewrittenOnlyOnChange(t *testing.T) {
	dir := t.TempDir()
	marker := filepath.Join(dir, policyMarker)
	reopen := func(p Policy) {
		t.Helper()
		l, err := Open(dir, 1, Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, ok := WrittenPolicy(dir); !ok || got != p {
			t.Fatalf("WrittenPolicy = %v, %v; want %v", got, ok, p)
		}
	}
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(marker)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}

	reopen(SyncAlways)
	before := stat()
	reopen(SyncAlways)
	if !os.SameFile(before, stat()) {
		t.Fatal("reopen under an unchanged policy rewrote the marker")
	}

	reopen(SyncNever)
	if os.SameFile(before, stat()) {
		t.Fatal("a different policy left the old marker in place")
	}

	if err := os.Remove(marker); err != nil {
		t.Fatal(err)
	}
	reopen(SyncNever)

	if err := os.WriteFile(marker, []byte("sometimes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	garbled := stat()
	reopen(SyncNever)
	if os.SameFile(garbled, stat()) {
		t.Fatal("a garbled marker was kept")
	}
}

// TestTolerantTailTruncatesMidFileDamage pins the relaxed-policy rule:
// a log written without per-record fsync can, after a crash, hold a bad
// frame with valid-looking bytes after it in the final segment (page
// writeback is unordered for unsynced data). Tolerant replay must treat
// that as the end of the log and truncate, where strict replay refuses.
func TestTolerantTailTruncatesMidFileDamage(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Damage record 3 of 4: bytes follow the bad frame.
	start := len(frameOf(t, data, 0)) + len(frameOf(t, data, 1))
	data[start+frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Strict replay refuses...
	if _, err := Replay(dir, 0, false, nil); err == nil {
		t.Fatal("strict replay accepted mid-file damage")
	}
	// ...tolerant replay ends the log at the bad frame and truncates.
	var recs []Record
	last, err := Replay(dir, 0, true, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("tolerant replay: %v", err)
	}
	if last != 2 || len(recs) != 2 {
		t.Fatalf("tolerant replay kept last=%d n=%d, want 2/2", last, len(recs))
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(start) {
		t.Fatalf("size %d after truncation, want %d", info.Size(), start)
	}
	// Damage in a NON-final segment stays fatal even in tolerant mode.
	dir2 := t.TempDir()
	l, err = Open(dir2, 1, Options{Policy: SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 12, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir2)
	first := filepath.Join(dir2, names[0])
	data, err = os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Replay(dir2, 0, true, nil); !errors.As(err, &ce) {
		t.Fatalf("tolerant replay forgave a sealed segment: %v", err)
	}
}
