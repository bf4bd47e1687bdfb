package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

func TestAppendBatchContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0) // LSNs 1..3
	img := testImage("A")
	batch := []Record{
		{LSN: 4, Op: OpInsert, ID: "b1", Image: &img},
		{LSN: 5, Op: OpInsert, ID: "b2", Image: &img},
		{LSN: 6, Op: OpDelete, ID: "b1"},
	}
	n, err := l.AppendBatchFrames(batch, framesOf(t, batch))
	if err != nil || n <= 3*frameHeaderLen {
		t.Fatalf("AppendBatchFrames: n=%d err=%v", n, err)
	}
	if got := l.DurableLSN(); got != 6 {
		t.Fatalf("durable after batch = %d, want 6", got)
	}
	// A batch that does not continue the sequence is rejected whole.
	if gap := []Record{{LSN: 9, Op: OpDelete, ID: "x"}}; appendBatch(t, l, gap) == nil {
		t.Fatal("out-of-sequence batch accepted")
	}
	if gap := []Record{{LSN: 7, Op: OpDelete, ID: "x"}, {LSN: 9, Op: OpDelete, ID: "y"}}; appendBatch(t, l, gap) == nil {
		t.Fatal("gapped batch accepted")
	}
	// The rejections wrote nothing: the sequence still continues at 7.
	if lsn, _, err := l.Append(Record{Op: OpDelete, ID: "b2"}); err != nil || lsn != 7 {
		t.Fatalf("append after rejected batches: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, last := replayAll(t, dir, 0)
	if last != 7 || len(recs) != 7 {
		t.Fatalf("last=%d records=%d, want 7/7", last, len(recs))
	}
	if recs[4].ID != "b2" || recs[5].Op != OpDelete {
		t.Fatalf("batched records not preserved: %+v %+v", recs[4], recs[5])
	}
}

// framesOf encodes each record as the wire frame a replication stream
// would carry for it.
func framesOf(t *testing.T, recs []Record) [][]byte {
	t.Helper()
	frames := make([][]byte, len(recs))
	for i := range recs {
		frame, err := EncodeFrame(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	return frames
}

// appendBatch appends recs through AppendBatchFrames, framed as a
// replication stream frames them.
func appendBatch(t *testing.T, l *Log, recs []Record) error {
	t.Helper()
	_, err := l.AppendBatchFrames(recs, framesOf(t, recs))
	return err
}

func TestAppendBatchRotates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	img := testImage("A")
	var batch []Record
	for i := 0; i < 12; i++ {
		batch = append(batch, Record{LSN: uint64(i + 1), Op: OpInsert, ID: fmt.Sprintf("r%02d", i), Image: &img})
	}
	if err := appendBatch(t, l, batch); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("tiny threshold produced %d segment(s), want rotation", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, last := replayAll(t, dir, 0)
	if last != 12 || len(recs) != 12 {
		t.Fatalf("last=%d records=%d, want 12/12", last, len(recs))
	}
}

func TestDurableLSNPolicies(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 0)
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("SyncNever durable after appends = %d, want 0", got)
	}
	// Rotation seals (and fsyncs) the segment: everything in it is durable.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 4 {
		t.Fatalf("durable after rotate = %d, want 4", got)
	}
	appendN(t, l, 2, 4)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 6 {
		t.Fatalf("durable after explicit sync = %d, want 6", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: everything replayed is the recovered truth.
	l2, err := Open(dir, 7, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.DurableLSN(); got != 6 {
		t.Fatalf("durable after reopen = %d, want 6", got)
	}
	if st := l2.Stats(); st.DurableLSN != 6 || st.OldestLSN != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWaitDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- l.WaitDurable(context.Background(), 3)
	}()
	appendN(t, l, 2, 0)
	select {
	case err := <-done:
		t.Fatalf("WaitDurable(3) returned early after 2 appends: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	appendN(t, l, 1, 2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitDurable(3) did not wake after LSN 3 became durable")
	}
	// A canceled context unblocks.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- l.WaitDurable(ctx, 99) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled WaitDurable = %v", err)
	}
	// Close unblocks with ErrLogClosed.
	go func() { done <- l.WaitDurable(context.Background(), 99) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrLogClosed) {
		t.Fatalf("WaitDurable after Close = %v", err)
	}
}

func TestTailerCatchUpAndLive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 10, 0) // spans several tiny segments

	tl := l.Tail(0)
	defer tl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 10; i++ {
		rec, err := tl.Next(ctx)
		if err != nil {
			t.Fatalf("catch-up Next %d: %v", i, err)
		}
		if rec.LSN != uint64(i) {
			t.Fatalf("catch-up lsn = %d, want %d", rec.LSN, i)
		}
	}
	if tl.NextLSN() != 11 {
		t.Fatalf("NextLSN = %d, want 11", tl.NextLSN())
	}

	// Live tail: the reader blocks until the writer appends more.
	got := make(chan Record, 1)
	errc := make(chan error, 1)
	go func() {
		rec, err := tl.Next(ctx)
		if err != nil {
			errc <- err
			return
		}
		got <- rec
	}()
	select {
	case rec := <-got:
		t.Fatalf("live Next returned %+v before any append", rec)
	case err := <-errc:
		t.Fatalf("live Next: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	appendN(t, l, 1, 10)
	select {
	case rec := <-got:
		if rec.LSN != 11 || rec.ID != "img0010" {
			t.Fatalf("live record = %+v", rec)
		}
	case err := <-errc:
		t.Fatalf("live Next: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("live Next did not observe the append")
	}
}

func TestTailerResumeMidStream(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 20, 0)
	ctx := context.Background()
	// Resume from an arbitrary mid-log position, as a reconnecting
	// follower does.
	tl := l.Tail(7)
	defer tl.Close()
	for i := 8; i <= 20; i++ {
		rec, err := tl.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rec.LSN != uint64(i) {
			t.Fatalf("resumed lsn = %d, want %d", rec.LSN, i)
		}
	}
}

func TestTailerGoneAfterPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 12, 0)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveObsolete(12); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestLSN()
	if oldest <= 1 {
		t.Fatalf("OldestLSN = %d after pruning through 12", oldest)
	}
	tl := l.Tail(0)
	defer tl.Close()
	if _, err := tl.Next(context.Background()); !errors.Is(err, ErrGone) {
		t.Fatalf("tail from pruned position = %v, want ErrGone", err)
	}
	// From the retained floor the stream still works. (After pruning
	// through LSN 12 the retained log is just the empty active segment, so
	// append one more record for the floor tail to deliver.)
	appendN(t, l, 1, 12)
	tl2 := l.Tail(oldest - 1)
	defer tl2.Close()
	rec, err := tl2.Next(context.Background())
	if err != nil || rec.LSN != oldest {
		t.Fatalf("tail from floor: rec=%+v err=%v", rec, err)
	}
}

func TestFrameWireRoundTrip(t *testing.T) {
	img := testImage("A")
	recs := []Record{
		{LSN: 1, Op: OpInsert, ID: "a", Image: &img},
		{LSN: 2, Op: OpGroup, Subs: []Record{{Op: OpDelete, ID: "a"}, {Op: OpInsert, ID: "b", Image: &img}}},
	}
	var wire []byte
	for i := range recs {
		var err error
		wire, err = EncodeFrame(wire, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wire)
	for i := range recs {
		rec, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if rec.LSN != recs[i].LSN || rec.Op != recs[i].Op || len(rec.Subs) != len(recs[i].Subs) {
			t.Fatalf("frame %d round trip: %+v", i, rec)
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
	// A frame cut mid-payload is an unexpected EOF, not a clean end.
	torn := bytes.NewReader(wire[:len(wire)-3])
	if _, err := ReadFrame(torn); err != nil {
		t.Fatalf("intact first frame: %v", err)
	}
	if _, err := ReadFrame(torn); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn wire frame = %v", err)
	}
	// Flipped payload byte fails the checksum.
	bad := append([]byte(nil), wire...)
	bad[frameHeaderLen+2] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt wire frame accepted")
	}
}

func TestRecordMutationsAndInspectCounts(t *testing.T) {
	img := testImage("A")
	group := Record{Op: OpGroup, Subs: []Record{
		{Op: OpInsert, ID: "a", Image: &img},
		{Op: OpBulk, Items: []BulkItem{{ID: "b", Image: img}, {ID: "c", Image: img}}},
		{Op: OpDelete, ID: "a"},
	}}
	if got := group.Mutations(); got != 4 {
		t.Fatalf("group Mutations = %d, want 4", got)
	}
	dir := t.TempDir()
	l, err := Open(dir, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(group); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(Record{Op: OpDelete, ID: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("segments = %d", len(infos))
	}
	in := infos[0]
	if in.Records != 2 || in.Groups != 1 || in.GroupSubs != 3 || in.Mutations != 5 {
		t.Fatalf("inspect counts = %+v", in)
	}
}
