package wal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrGone reports a tail position that has been pruned: the segment
// holding the next record was removed by a checkpoint, so the stream
// cannot resume from here and the consumer must be re-seeded from a
// snapshot.
var ErrGone = errors.New("wal: requested records pruned")

// errSegmentRace is an internal retry signal: the segment picked from a
// directory listing vanished (pruned) before it could be opened. The
// next resolution pass either finds the records elsewhere or reports
// ErrGone for real.
var errSegmentRace = errors.New("wal: segment removed during open")

// Tailer streams the records of a live log in LSN order, starting after
// a given position: sealed segments first, then the open segment,
// blocking in Next until new records become durable. It reads only up to
// the durable horizon (DurableLSN), never into appended-but-unsynced
// bytes — see the durable field's comment for why replication must not
// outrun the disk.
//
// A Tailer is owned by one goroutine; cancel the context passed to Next
// to stop it, then Close to release the open segment.
type Tailer struct {
	l     *Log
	next  uint64 // LSN the next call to Next will deliver
	f     *os.File
	off   int64
	hdr   [frameHeaderLen]byte
	buf   []byte
	frame []byte // last assembled wire frame, reused by NextRaw
}

// Tail returns a Tailer positioned after afterLSN: the first Next
// delivers afterLSN+1. Pass 0 to stream from the beginning of the
// retained log.
func (l *Log) Tail(afterLSN uint64) *Tailer {
	return &Tailer{l: l, next: afterLSN + 1}
}

// NextLSN returns the LSN the next call to Next will deliver.
func (t *Tailer) NextLSN() uint64 { return t.next }

// Next returns the next record in LSN order, blocking until it is
// durable. It returns ErrGone if the position was pruned, ErrLogClosed
// if the log shut down, or the context error on cancellation.
func (t *Tailer) Next(ctx context.Context) (Record, error) {
	_, payload, err := t.nextPayload(ctx)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, &CorruptError{Segment: t.f.Name(), Offset: t.off,
			Reason: fmt.Sprintf("undecodable payload: %v", err)}
	}
	return rec, nil
}

// NextRaw returns the LSN and verified wire frame of the next record
// exactly as stored (length, CRC32C, JSON payload), without decoding
// the payload — a replication server forwards these bytes untouched,
// which keeps the per-record CPU to a CRC and an LSN scan and
// guarantees the follower logs the primary's bytes verbatim. The slice
// is only valid until the following Next/NextRaw call.
func (t *Tailer) NextRaw(ctx context.Context) (uint64, []byte, error) {
	lsn, payload, err := t.nextPayload(ctx)
	if err != nil {
		return 0, nil, err
	}
	t.frame = append(append(t.frame[:0], t.hdr[:]...), payload...)
	return lsn, t.frame, nil
}

// nextPayload advances to the next in-sequence frame and returns its
// LSN and CRC-verified payload (a view into the Tailer's buffer).
func (t *Tailer) nextPayload(ctx context.Context) (uint64, []byte, error) {
	for {
		if err := t.l.WaitDurable(ctx, t.next); err != nil {
			return 0, nil, err
		}
		if t.f == nil {
			if err := t.open(); err != nil {
				if errors.Is(err, errSegmentRace) {
					continue
				}
				return 0, nil, err
			}
		}
		payload, n, err := t.readFrame()
		if errors.Is(err, io.EOF) {
			// The durable record t.next is not in this segment, so the
			// writer rotated past it: re-resolve which segment holds it.
			// (Durability is checked before the read, and a frame's write
			// completes before its LSN can become durable, so EOF here can
			// never mean "not written yet".)
			t.closeFile()
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		lsn, ok := peekLSN(payload)
		if !ok {
			return 0, nil, &CorruptError{Segment: t.f.Name(), Offset: t.off,
				Reason: "undecodable payload: no lsn"}
		}
		t.off += int64(n)
		if lsn < t.next {
			continue // skipping already-consumed records at the segment head
		}
		if lsn != t.next {
			return 0, nil, &CorruptError{Segment: t.f.Name(), Offset: t.off - int64(n),
				Reason: fmt.Sprintf("lsn %d breaks tail sequence (want %d)", lsn, t.next)}
		}
		t.next++
		return lsn, payload, nil
	}
}

// peekLSN extracts a record's LSN without decoding the payload. Every
// frame this log writes begins `{"lsn":N` — encoding/json emits struct
// fields in declaration order — so a byte scan suffices; anything else
// (hand-crafted or future encodings) falls back to a minimal decode.
func peekLSN(payload []byte) (uint64, bool) {
	const prefix = `{"lsn":`
	if len(payload) > len(prefix) && string(payload[:len(prefix)]) == prefix {
		v, i, ok := uint64(0), len(prefix), false
		for ; i < len(payload); i++ {
			c := payload[i]
			if c < '0' || c > '9' {
				break
			}
			v = v*10 + uint64(c-'0')
			ok = true
		}
		if ok && i < len(payload) && (payload[i] == ',' || payload[i] == '}') {
			return v, true
		}
	}
	var hdr struct {
		LSN uint64 `json:"lsn"`
	}
	if json.Unmarshal(payload, &hdr) != nil {
		return 0, false
	}
	return hdr.LSN, true
}

// open resolves and opens the segment holding record t.next. Records
// live in the segment with the greatest first-LSN name <= their LSN.
func (t *Tailer) open() error {
	l := t.l
	l.mu.Lock()
	oldest := l.oldest
	l.mu.Unlock()
	if t.next < oldest {
		return ErrGone
	}
	names, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	pick := ""
	for _, name := range names {
		first, ok := parseSegmentName(name)
		if !ok || first > t.next {
			break
		}
		pick = name
	}
	if pick == "" {
		return ErrGone
	}
	f, err := os.Open(filepath.Join(l.dir, pick))
	if err != nil {
		if os.IsNotExist(err) {
			return errSegmentRace // pruned between list and open
		}
		return fmt.Errorf("wal: tail open segment: %w", err)
	}
	t.f, t.off = f, 0
	return nil
}

// readFrame reads and CRC-verifies the frame at t.off, returning its
// payload (undecoded). io.EOF means the segment ends before a complete
// frame — for a Tailer that always signals rotation, never a torn
// write, because it only reads below the durable horizon.
func (t *Tailer) readFrame() ([]byte, int, error) {
	if _, err := t.f.ReadAt(t.hdr[:], t.off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wal: tail read: %w", err)
	}
	length := int(binary.LittleEndian.Uint32(t.hdr[0:4]))
	if length > maxRecordBytes {
		return nil, 0, &CorruptError{Segment: t.f.Name(), Offset: t.off,
			Reason: fmt.Sprintf("frame length %d exceeds limit %d", length, maxRecordBytes)}
	}
	if cap(t.buf) < length {
		t.buf = make([]byte, length)
	}
	payload := t.buf[:length]
	if _, err := t.f.ReadAt(payload, t.off+frameHeaderLen); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wal: tail read: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(t.hdr[4:8]) {
		return nil, 0, &CorruptError{Segment: t.f.Name(), Offset: t.off, Reason: "checksum mismatch"}
	}
	return payload, frameHeaderLen + length, nil
}

func (t *Tailer) closeFile() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// Close releases the open segment. The Tailer must not be used after.
func (t *Tailer) Close() { t.closeFile() }

// EncodeFrame appends rec to buf in the log's frame layout (length,
// CRC32C, JSON payload) and returns the extended slice. The replication
// stream reuses this framing on the wire, so a follower's AppendBatchFrames
// writes byte-compatible frames into its own log.
func EncodeFrame(buf []byte, rec *Record) ([]byte, error) {
	return encodeFrame(buf, rec)
}

// ReadFrame reads and verifies one frame from r, as written by
// EncodeFrame. A clean end of stream at a frame boundary returns io.EOF;
// a header or payload cut mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Record, error) {
	rec, _, err := ReadFrameRaw(r)
	return rec, err
}

// ReadFrameRaw is ReadFrame, but additionally returns the frame's exact
// wire bytes (header + payload) in a fresh slice. A replication
// follower keeps these and hands them to AppendBatchFrames, so its log
// holds the primary's bytes verbatim — never a re-encoding.
func ReadFrameRaw(r io.Reader) (Record, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, nil, io.EOF
		}
		return Record{}, nil, fmt.Errorf("wal: read frame header: %w", err)
	}
	length := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if length > maxRecordBytes {
		return Record{}, nil, fmt.Errorf("wal: frame length %d exceeds limit %d", length, maxRecordBytes)
	}
	frame := make([]byte, frameHeaderLen+length)
	copy(frame, hdr[:])
	payload := frame[frameHeaderLen:]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, nil, fmt.Errorf("wal: read frame payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return Record{}, nil, errors.New("wal: frame checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, nil, fmt.Errorf("wal: undecodable frame payload: %w", err)
	}
	return rec, frame, nil
}
