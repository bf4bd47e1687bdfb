package imagedb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bestring/internal/core"
	"bestring/internal/wal"
)

// scriptOp is one step of a randomized script, applied identically to the
// durable store under test and to a volatile in-memory mirror.
type scriptOp struct {
	desc string
	run  func(db *DB) error
	// want is the errors.Is class the step must fail with through every
	// door; nil means it must succeed.
	want error
	// op and muts describe the WAL record an accepted step logs: its
	// operation and how many logical mutations it carries.
	op   string
	muts int
	// uses is the id (if any) the step's outcome depends on being present,
	// adds the ids an accepted step inserts. A writer that edits an id
	// before its insert was acknowledged may rightly be told "not found",
	// so concurrent drivers must not issue a step while an insert of its
	// uses id is still in flight.
	uses string
	adds []string
}

// genScript builds a deterministic random mutation script. Every step is
// valid against the state the previous steps produce, so the store under
// test acknowledges all of them.
func genScript(rng *rand.Rand, steps int) []scriptOp { return genOpScript(rng, steps, false) }

// genOpScript is genScript with, when failing is set, steps that must be
// rejected mixed in: duplicate, missing and empty ids, in-batch
// duplicates, object edits that no longer convert, deletes of absent
// labels. The generator tracks ids and labels itself, so a step never
// reads database state — it means the same thing sequentially, inside a
// commit group, replayed and replicated.
func genOpScript(rng *rand.Rand, steps int, failing bool) []scriptOp {
	var script []scriptOp
	emit := func(op scriptOp, run func(db *DB) error) {
		op.run = run
		script = append(script, op)
	}
	live := []string{}              // ids present, insertion order
	labels := map[string][]string{} // id -> its object labels, in image order
	img := func() core.Image {
		n := 2 + rng.Intn(3)
		objs := make([]core.Object, n)
		for i := range objs {
			x, y := rng.Intn(8), rng.Intn(8)
			objs[i] = core.Object{
				Label: fmt.Sprintf("L%d", i*10+rng.Intn(10)),
				Box:   core.NewRect(x, y, x+1+rng.Intn(2), y+1+rng.Intn(2)),
			}
		}
		return core.NewImage(12, 12, objs...)
	}
	next, fresh := 0, 0
	newID := func() string { next++; return fmt.Sprintf("img%03d", next-1) }
	track := func(id string, im core.Image) {
		live = append(live, id)
		for _, o := range im.Objects {
			labels[id] = append(labels[id], o.Label)
		}
	}
	pick := func() string { return live[rng.Intn(len(live))] }
	ctx := context.Background()
	for len(script) < steps {
		if failing && len(live) > 0 && rng.Intn(3) == 0 {
			id, ghost := pick(), fmt.Sprintf("ghost%03d", rng.Intn(1000))
			box := core.NewRect(0, 0, 1, 1)
			switch rng.Intn(9) {
			case 0:
				im := img()
				emit(scriptOp{desc: "dup insert " + id, op: wal.OpInsert, want: ErrDuplicate}, func(db *DB) error { return db.Insert(id, "dup", im) })
			case 1:
				emit(scriptOp{desc: "delete missing " + ghost, op: wal.OpDelete, want: ErrNotFound}, func(db *DB) error { return db.Delete(ghost) })
			case 2:
				im := img()
				emit(scriptOp{desc: "insert empty id", op: wal.OpInsert, want: ErrEmptyID}, func(db *DB) error { return db.Insert("", "", im) })
			case 3: // in-batch duplicate: the fresh id is not consumed — nothing of the batch may land
				items := []BulkItem{{ID: fmt.Sprintf("img%03d", next), Image: img()}, {ID: fmt.Sprintf("img%03d", next), Image: img()}}
				emit(scriptOp{desc: "bulk in-batch dup", op: wal.OpBulk, want: ErrDuplicate}, func(db *DB) error { return db.BulkInsert(ctx, items, 0) })
			case 4: // batch colliding with a live id, behind a fresh one that must not land either
				items := []BulkItem{{ID: fmt.Sprintf("img%03d", next), Image: img()}, {ID: id, Image: img()}}
				emit(scriptOp{desc: "bulk dup " + id, op: wal.OpBulk, want: ErrDuplicate}, func(db *DB) error { return db.BulkInsert(ctx, items, 0) })
			case 5:
				items := []BulkItem{{ID: fmt.Sprintf("img%03d", next), Image: img()}, {ID: "", Image: img()}}
				emit(scriptOp{desc: "bulk empty id", op: wal.OpBulk, want: ErrEmptyID}, func(db *DB) error { return db.BulkInsert(ctx, items, 0) })
			case 6: // an object that no longer converts: its label is already on the image
				o := core.Object{Label: labels[id][0], Box: box}
				emit(scriptOp{desc: "insert-object dup label " + id, op: wal.OpInsertObject, want: core.ErrDuplicateLabel, uses: id}, func(db *DB) error { return db.InsertObject(id, o) })
			case 7:
				emit(scriptOp{desc: "delete-object absent label " + id, op: wal.OpDeleteObject, want: ErrNotFound}, func(db *DB) error { return db.DeleteObject(id, "absent") })
			default:
				o := core.Object{Label: "Z", Box: box}
				emit(scriptOp{desc: "insert-object missing " + ghost, op: wal.OpInsertObject, want: ErrNotFound}, func(db *DB) error { return db.InsertObject(ghost, o) })
			}
			continue
		}
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // insert
			id, im := newID(), img()
			track(id, im)
			emit(scriptOp{desc: "insert " + id, op: wal.OpInsert, muts: 1, adds: []string{id}}, func(db *DB) error { return db.Insert(id, "scripted", im) })
		case op < 6: // delete a random live id
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			delete(labels, id)
			emit(scriptOp{desc: "delete " + id, op: wal.OpDelete, muts: 1, uses: id}, func(db *DB) error { return db.Delete(id) })
		case op < 7: // add an object with a fresh label
			id := pick()
			o := core.Object{
				Label: fmt.Sprintf("X%d", fresh),
				Box:   core.NewRect(0, 0, 1+rng.Intn(3), 1+rng.Intn(3)),
			}
			fresh++
			labels[id] = append(labels[id], o.Label)
			emit(scriptOp{desc: "insert-object " + id + "/" + o.Label, op: wal.OpInsertObject, muts: 1, uses: id}, func(db *DB) error { return db.InsertObject(id, o) })
		case op < 8: // bulk batch of 2-4 fresh images
			items := make([]BulkItem, 2+rng.Intn(3))
			ids := make([]string, len(items))
			for i := range items {
				items[i] = BulkItem{ID: newID(), Name: "bulk", Image: img()}
				track(items[i].ID, items[i].Image)
				ids[i] = items[i].ID
			}
			emit(scriptOp{desc: fmt.Sprintf("bulk x%d", len(items)), op: wal.OpBulk, muts: len(items), adds: ids}, func(db *DB) error { return db.BulkInsert(ctx, items, 0) })
		default: // drop the first object of an image, or — when it is the last — fail to
			id := pick()
			label, want := labels[id][0], error(nil)
			if len(labels[id]) > 1 {
				labels[id] = labels[id][1:]
			} else if want = core.ErrEmptyImage; !failing {
				continue
			}
			emit(scriptOp{desc: "delete-object " + id + "/" + label, op: wal.OpDeleteObject, muts: 1, want: want, uses: id}, func(db *DB) error { return db.DeleteObject(id, label) })
		}
	}
	return script
}

// copyDir clones a store directory for crash simulations.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// sweepCuts simulates a crash at every byte cut of seg's final frame —
// data[:cut] for cut in [start, len(data)] — reopening the store once
// per cut and handing the recovered state's Save bytes to check. All
// cuts share one copy of dir: a reopen changes only the swept segment
// (recovery truncates its torn tail) and may create files (a fresh
// active segment), so before each cut the segment is rewritten and any
// file absent from the copy is deleted. Every other file must come
// through a reopen untouched, which the sweep verifies rather than
// assumes.
func sweepCuts(t *testing.T, dir, seg string, data []byte, start int, check func(cut int, got []byte)) {
	t.Helper()
	crash := t.TempDir()
	copyDir(t, dir, crash)
	type stamp struct {
		size int64
		mod  time.Time
	}
	base := map[string]stamp{}
	entries, err := os.ReadDir(crash)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		base[e.Name()] = stamp{fi.Size(), fi.ModTime()}
	}
	for cut := start; cut <= len(data); cut++ {
		entries, err := os.ReadDir(crash)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			was, kept := base[e.Name()]
			switch {
			case !kept:
				if err := os.Remove(filepath.Join(crash, e.Name())); err != nil {
					t.Fatal(err)
				}
			case e.Name() != seg:
				fi, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				if (stamp{fi.Size(), fi.ModTime()}) != was {
					t.Fatalf("cut=%d: a reopen modified %s", cut, e.Name())
				}
			}
		}
		// A fresh file, not a rewrite in place: ext4 flushes a file's dirty
		// pages when recovery later truncates it to zero, at tens of
		// milliseconds per cut.
		if err := os.Remove(filepath.Join(crash, seg)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, seg), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := OpenStore(crash, StoreOptions{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		got := saveBytes(t, rs.Save)
		if err := rs.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		check(cut, got)
	}
}

// finalSegment returns the highest-named WAL segment in dir.
func finalSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// lastFrameStart walks the frame chain (layout pinned by the WAL format:
// 4-byte length, 4-byte CRC32C, payload) and returns the offset of the
// final frame.
func lastFrameStart(t *testing.T, data []byte) int {
	t.Helper()
	off, last := 0, -1
	for off < len(data) {
		last = off
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + length
	}
	if last < 0 || off != len(data) {
		t.Fatalf("segment does not end on a frame boundary (off=%d len=%d)", off, len(data))
	}
	return last
}

// TestRecoveryTruncationSweep is the crash-recovery property test of
// ISSUE 3: run a randomized mutation script against a store (fsync
// always, with a mid-script checkpoint and forced segment rotations),
// then simulate a crash at EVERY byte-truncation point of the final WAL
// record and check the reopened store matches the prefix state
// byte-identically — all acknowledged-and-synced mutations survive, the
// torn final record is forgiven, and nothing else changes.
func TestRecoveryTruncationSweep(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			const steps = 14
			script := genScript(rng, steps)
			checkpointAt := steps / 2

			dir := t.TempDir()
			s, err := OpenStore(dir, StoreOptions{
				Fsync: FsyncAlways, SegmentBytes: 700, CheckpointBytes: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Mirror DBs: wants[i] is the canonical snapshot after i steps.
			mirror := New()
			wants := make([][]byte, steps+1)
			wants[0] = saveBytes(t, mirror.Save)
			for i, m := range script {
				if err := m.run(s); err != nil {
					t.Fatalf("step %d (%s): %v", i, m.desc, err)
				}
				if err := m.run(mirror); err != nil {
					t.Fatalf("mirror step %d (%s): %v", i, m.desc, err)
				}
				wants[i+1] = saveBytes(t, mirror.Save)
				if i == checkpointAt {
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := saveBytes(t, mustOpen(t, dir).Save); !bytes.Equal(got, wants[steps]) {
				t.Fatal("clean reopen differs from mirror")
			}

			seg := finalSegment(t, dir)
			data, err := os.ReadFile(filepath.Join(dir, seg))
			if err != nil {
				t.Fatal(err)
			}
			start := lastFrameStart(t, data)
			sweepCuts(t, dir, seg, data, start, func(cut int, got []byte) {
				want := wants[steps-1]
				if cut == len(data) {
					want = wants[steps] // complete record: nothing was lost
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cut=%d: recovered state is not the acknowledged prefix", cut)
				}
			})
		})
	}
}

func mustOpen(t *testing.T, dir string) *DB {
	t.Helper()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRecoveryTruncationSweepBatched extends the truncation sweep to
// group-commit frames: build the store in phases of K concurrent
// mutations, each phase deterministically coalesced into ONE OpGroup
// frame (the committer is parked while the phase's callers queue up),
// then simulate a crash at EVERY byte-truncation point of the final
// group frame. The reopened store must byte-identically equal a phase
// boundary — the previous one for any cut short of the full frame, the
// final one at full length. A batch is never half-applied: there is no
// truncation point at which recovery yields part of a group.
func TestRecoveryTruncationSweepBatched(t *testing.T) {
	const phases, k = 6, 4
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{
		Fsync: FsyncAlways, SegmentBytes: 900, CheckpointBytes: -1, CommitBatch: k,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase p's four mutations touch disjoint ids (two fresh inserts, an
	// object edit on the previous phase's entry, a delete of the one
	// before that), so any arrival order inside the group reaches the
	// same state. wants[p] is the store's own canonical snapshot after p
	// phases — the reference for what each truncation must recover to.
	phase := func(p int) []func() error {
		id := func(p int, suf string) string { return fmt.Sprintf("p%02d-%s", p, suf) }
		muts := []func() error{
			func() error { return s.Insert(id(p, "a"), "batched", storeImage(3*p)) },
			func() error { return s.Insert(id(p, "b"), "batched", storeImage(3*p+1)) },
		}
		if p >= 1 {
			muts = append(muts, func() error {
				return s.InsertObject(id(p-1, "a"),
					core.Object{Label: fmt.Sprintf("X%d", p), Box: core.NewRect(7, 7, 8, 8)})
			})
		} else {
			muts = append(muts, func() error { return s.Insert(id(p, "c"), "batched", storeImage(3*p+2)) })
		}
		if p >= 2 {
			muts = append(muts, func() error { return s.Delete(id(p-2, "a")) })
		} else {
			muts = append(muts, func() error { return s.Insert(id(p, "d"), "batched", storeImage(3*p+2)) })
		}
		return muts
	}

	wants := make([][]byte, phases+1)
	wants[0] = saveBytes(t, s.Save)
	for p := 0; p < phases; p++ {
		release := holdCommitter(t, s)
		muts := phase(p)
		errs := make([]error, len(muts))
		var wg sync.WaitGroup
		for i, fn := range muts {
			wg.Add(1)
			go func(i int, fn func() error) {
				defer wg.Done()
				errs[i] = fn()
			}(i, fn)
		}
		waitQueued(t, s, k)
		release()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("phase %d mutation %d: %v", p, i, err)
			}
		}
		wants[p+1] = saveBytes(t, s.Save)
		if p == phases/2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.StoreStats()
	if st.Commit.Groups != phases || st.Commit.Largest != k {
		t.Fatalf("commit stats = %+v, want %d groups of %d", st.Commit, phases, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := finalSegment(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	start := lastFrameStart(t, data)
	// The swept frame really is one whole commit group.
	var last wal.Record
	if err := json.Unmarshal(data[start+8:], &last); err != nil {
		t.Fatal(err)
	}
	if last.Op != wal.OpGroup || len(last.Subs) != k {
		t.Fatalf("final frame is %q with %d subs, want a group of %d", last.Op, len(last.Subs), k)
	}

	sweepCuts(t, dir, seg, data, start, func(cut int, got []byte) {
		want := wants[phases-1]
		if cut == len(data) {
			want = wants[phases] // complete group: nothing was lost
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut=%d: recovered state is not a phase boundary — a commit group was half-applied or over-truncated", cut)
		}
	})
}

// TestRecoveryRejectsInteriorCorruption pins the other half of the
// recovery contract: damage that is not a torn tail must fail OpenStore
// with a descriptive error, never a silently wrong database.
func TestRecoveryRejectsInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Insert(fmt.Sprintf("img%d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := finalSegment(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the SECOND record's payload: mid-log damage.
	second := 8 + int(binary.LittleEndian.Uint32(data[0:4])) // start of record 2
	data[second+8+3] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStore(dir, StoreOptions{})
	if err == nil {
		t.Fatal("interior corruption went unnoticed")
	}
	for _, wantSub := range []string{"corrupt", seg, "checksum"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}
}
