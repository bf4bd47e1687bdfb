package imagedb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bestring/internal/wal"
)

// TestOpScriptEveryDoor runs one seeded script — valid mutations of every
// kind mixed with steps that must be rejected — through every door onto
// the write path and demands they agree: (a) a volatile DB, step by
// step, each write committed inline; (b) a durable DB, k concurrent
// writers at a time held into one commit group in script order; (c)
// that store reopened, from the WAL alone and from a mid-script
// checkpoint plus the tail; (d) a follower fed the primary's frames. Each step fails with the same errors.Is class
// on (a) and (b), and all four end on identical Save bytes, IDs() order,
// fully indexed entries, sound posting runs and the reference's answer to
// the same random queries. The log's structure is checked through
// InspectStore: one frame per group that accepted anything, a plain
// record when it accepted exactly one mutation.
func TestOpScriptEveryDoor(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, checkpoint := range []bool{false, true} {
			seed, checkpoint := seed, checkpoint
			t.Run(fmt.Sprintf("seed=%d/checkpoint=%v", seed, checkpoint), func(t *testing.T) {
				t.Parallel()
				const steps, k = 80, 5
				script := genOpScript(rand.New(rand.NewSource(seed)), steps, true)
				check := func(door string, i int, err error) {
					t.Helper()
					if want := script[i].want; (want == nil) != (err == nil) || !errors.Is(err, want) {
						t.Fatalf("%s step %d (%s): err = %v, want class %v", door, i, script[i].desc, err, want)
					}
				}

				// (a) the volatile DB, sequentially.
				db := New()
				rejected := 0
				for i, op := range script {
					err := op.run(db)
					check("db", i, err)
					if err != nil {
						rejected++
					}
					assertPostings(t, db) // after every step, accepted or rejected
				}
				if rejected < steps/8 || rejected > steps/2 {
					t.Fatalf("script rejects %d of %d steps: not the mix this test is for", rejected, steps)
				}
				want, wantIDs := saveBytes(t, db.Save), db.IDs()
				same := func(door string, got *DB) {
					t.Helper()
					if !bytes.Equal(saveBytes(t, got.Save), want) {
						t.Fatalf("%s: Save bytes differ from the volatile DB's", door)
					}
					if !reflect.DeepEqual(got.IDs(), wantIDs) {
						t.Fatalf("%s: IDs() = %v, want %v", door, got.IDs(), wantIDs)
					}
					assertSignaturesInstalled(t, got)
					assertNarrowingMatchesReference(t, door, got, seed)
				}
				same("db", db)

				// (b) the durable DB: each run of k steps is queued in script
				// order behind a parked committer and commits as one group.
				dir := t.TempDir()
				s, err := OpenStore(dir, StoreOptions{
					Fsync: FsyncAlways, SegmentBytes: 2048, CheckpointBytes: -1, CommitBatch: k,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantOps := map[string]int{}
				wantSubs, wantMuts := 0, 0
				for base, n := 0, 0; base < steps; base += n {
					// A group ends at k steps, or before a step that depends on
					// an id whose insert is still unacknowledged inside it.
					inFlight := map[string]bool{}
					for n = 0; n < k && base+n < steps && !inFlight[script[base+n].uses]; n++ {
						for _, id := range script[base+n].adds {
							inFlight[id] = true
						}
					}
					group := script[base : base+n]
					release := holdCommitter(t, s)
					errs := make([]error, len(group))
					done := make([]chan struct{}, len(group))
					for i, op := range group {
						done[i] = make(chan struct{})
						queued := s.batcher.queued()
						go func(i int, op scriptOp) {
							defer close(done[i])
							errs[i] = op.run(s)
						}(i, op)
						// Wait until the step is queued — or has already failed on
						// the lock-free checks and never will be.
						deadline := time.Now().Add(5 * time.Second)
						for returned := false; !returned && s.batcher.queued() == queued; {
							select {
							case <-done[i]:
								returned = true
							case <-time.After(100 * time.Microsecond):
								if time.Now().After(deadline) {
									t.Fatalf("step %d (%s) neither queued nor returned", base+i, op.desc)
								}
							}
						}
					}
					release()
					accepted, last := 0, ""
					for i, op := range group {
						<-done[i]
						check("store", base+i, errs[i])
						if errs[i] == nil {
							accepted++
							last = op.op
							wantMuts += op.muts
						}
					}
					switch {
					case accepted == 1:
						wantOps[last]++
					case accepted > 1:
						wantOps[wal.OpGroup]++
						wantSubs += accepted
					}
					if checkpoint && base <= steps/2 && steps/2 < base+n {
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				same("store", s)
				if got := s.StoreStats().Commit; got.Rejected == 0 || got.Rejected > uint64(rejected) {
					// Some rejections must have happened at commit time, inside
					// a group — not all on the fast-fail path.
					t.Fatalf("commit stats = %+v, want 1..%d in-group rejections", got, rejected)
				}

				// (d) a follower fed the primary's frames verbatim, a few at a
				// time (before the primary closes: the tail needs a live log).
				if !checkpoint { // a checkpoint pruned the head of the stream
					follower, err := OpenStore(t.TempDir(), StoreOptions{Replica: true, CheckpointBytes: -1})
					if err != nil {
						t.Fatal(err)
					}
					defer follower.Close()
					tl := s.TailWAL(0)
					defer tl.Close()
					var recs []wal.Record
					var frames [][]byte
					for durable := s.DurableLSN(); tl.NextLSN() <= durable; {
						_, raw, err := tl.NextRaw(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						rec, frame, err := wal.ReadFrameRaw(bytes.NewReader(raw))
						if err != nil {
							t.Fatal(err)
						}
						recs, frames = append(recs, rec), append(frames, frame)
						if len(recs) == 3 || tl.NextLSN() > durable {
							if err := follower.ApplyReplicatedFrames(recs, frames); err != nil {
								t.Fatal(err)
							}
							recs, frames = nil, nil
						}
					}
					same("follower", follower)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}

				// The log's structure: a frame per group that accepted
				// anything, plain when it accepted one mutation.
				if !checkpoint {
					ins, err := InspectStore(dir)
					if err != nil {
						t.Fatal(err)
					}
					records := 0
					for _, n := range wantOps {
						records += n
					}
					if ins.Records != records || ins.LastLSN != uint64(records) ||
						!reflect.DeepEqual(ins.RecordOps, wantOps) ||
						ins.GroupSubRecords != wantSubs || ins.LogicalMutations != wantMuts {
						t.Fatalf("log = %d records through lsn %d, ops %v, %d subs, %d mutations; want %d records, ops %v, %d subs, %d mutations",
							ins.Records, ins.LastLSN, ins.RecordOps, ins.GroupSubRecords, ins.LogicalMutations,
							records, wantOps, wantSubs, wantMuts)
					}
				}

				// (c) the store reopened: WAL only, or checkpoint + tail.
				same("reopened store", mustOpen(t, dir))
			})
		}
	}
}
