package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bestring/internal/fsutil"
)

// Policy selects when appended records reach stable storage.
type Policy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// survives any crash. The safe default.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a background cadence: a crash may lose the
	// last Interval's worth of acknowledged mutations.
	SyncInterval
	// SyncNever leaves flushing to the OS (still synced on rotation and
	// clean Close): fastest, weakest.
	SyncNever
)

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy reads a policy name as accepted by the -fsync flags.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval or never)", s)
}

// Default tuning.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultInterval     = 100 * time.Millisecond
)

// Options tune the append side of the log.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// size (0 means DefaultSegmentBytes). A single record larger than the
	// threshold still fits: it gets a segment of its own.
	SegmentBytes int64
	// Policy is the fsync policy (zero value: SyncAlways).
	Policy Policy
	// Interval is the flush cadence under SyncInterval (0 means
	// DefaultInterval).
	Interval time.Duration
}

// Log is the append side of the write-ahead log. All methods are safe for
// concurrent use, and Append assigns strictly sequential LSNs in call
// order.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // active segment (nil after a fatal rotation failure)
	size    int64    // bytes in the active segment
	sealedN int      // sealed (non-active) segment count
	sealedB int64    // bytes across sealed segments
	nextLSN uint64
	oldest  uint64 // first LSN of the oldest retained segment
	dirty   bool   // unsynced appends (SyncInterval / SyncNever)
	// durable is the highest LSN known to be on stable storage, advanced
	// only after a successful fsync covering it (or on Open, where every
	// replayed record is by definition the recovered truth). Replication
	// ships records no further than this: a follower must never apply a
	// record the primary could still lose in a crash, or a reconnect after
	// that crash would find the follower ahead of its primary — real
	// divergence, manufactured by the protocol itself.
	durable atomic.Uint64
	// durableCh is closed and replaced each time durable advances; waiters
	// re-check and re-arm. Guarded by mu.
	durableCh chan struct{}
	// fatalErr is sticky: once a write, sync or rotation fails, the log
	// may hold a record the caller never acknowledged, and a retried
	// mutation would append a second copy that poisons replay (the first
	// applies, the duplicate fails, recovery refuses forever). Every
	// later Append/Rotate/Sync returns this error instead; the process
	// must reopen the store, whose recovery truncates or replays the
	// half-written tail deterministically.
	fatalErr error
	closed   bool

	// metrics is built by Open and used under mu on every append path.
	metrics *logMetrics

	stop chan struct{} // closes the SyncInterval flusher
	done chan struct{}
}

// policyMarker is the file recording which fsync policy wrote this log.
// Replay tolerance must follow the WRITING policy, not whatever the
// reopening process happens to be configured with: an always-written
// tail with mid-file damage is real corruption (every acked frame was
// fsynced in order), while the same bytes in a never-written tail are a
// plausible crash artefact. Open rewrites the marker whenever it is
// absent, unparsable or names another policy, so it always describes
// the appends that come after the last recovery.
const policyMarker = "FSYNC"

// WrittenPolicy reports the fsync policy that produced the log in dir,
// if the marker exists and parses.
func WrittenPolicy(dir string) (Policy, bool) {
	data, err := os.ReadFile(filepath.Join(dir, policyMarker))
	if err != nil {
		return 0, false
	}
	p, err := ParsePolicy(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, false
	}
	return p, true
}

// writePolicyMarker durably records the policy about to write the log.
func writePolicyMarker(dir string, p Policy) error {
	err := fsutil.AtomicWriteFile(filepath.Join(dir, policyMarker), func(w io.Writer) error {
		_, werr := fmt.Fprintln(w, p.String())
		return werr
	})
	if err != nil {
		return fmt.Errorf("wal: write policy marker: %w", err)
	}
	return nil
}

// segmentName formats the file name of a segment whose first record (if
// it ever gets one) has the given LSN.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstLSN)
}

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// listSegments returns the segment file names in dir sorted by their
// first-LSN name component.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded hex: lexicographic == numeric
	return names, nil
}

// Open prepares the log in dir for appending; nextLSN is the sequence
// number the next appended record must get (last replayed LSN + 1, or 1
// for a fresh log). The caller must have run Replay first so a torn tail
// is already truncated. The last existing segment is reused while it is
// below the rotation threshold; otherwise (or when the directory holds no
// segments) a new segment is created.
func Open(dir string, nextLSN uint64, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if nextLSN == 0 {
		return nil, errors.New("wal: open: nextLSN must be >= 1")
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextLSN: nextLSN, durableCh: make(chan struct{})}
	l.metrics = newLogMetrics(l)
	// Everything already replayed is the recovered truth: durable through
	// the last existing record.
	l.durable.Store(nextLSN - 1)
	l.oldest = nextLSN
	if len(names) > 0 {
		if first, ok := parseSegmentName(names[0]); ok {
			l.oldest = first
		}
	}
	for i, name := range names {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		if i < len(names)-1 {
			l.sealedN++
			l.sealedB += info.Size()
			continue
		}
		if info.Size() < opts.SegmentBytes {
			f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: open active segment: %w", err)
			}
			l.f, l.size = f, info.Size()
		} else {
			l.sealedN++
			l.sealedB += info.Size()
		}
	}
	if l.f == nil {
		if err := l.createSegmentLocked(); err != nil {
			return nil, err
		}
	}
	// The marker only changes when the policy does: rewriting an equal
	// one would cost a temp write, two fsyncs and a rename per reopen.
	if p, ok := WrittenPolicy(dir); !ok || p != opts.Policy {
		if err := writePolicyMarker(dir, opts.Policy); err != nil {
			l.f.Close()
			return nil, err
		}
	}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, nil
}

// createSegmentLocked opens a fresh active segment named after the next
// LSN and makes its directory entry durable. Callers hold l.mu (or are
// Open, before the Log is shared).
func (l *Log) createSegmentLocked() error {
	path := filepath.Join(l.dir, segmentName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := fsutil.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// sealLocked syncs and closes the active segment, moving it to the sealed
// tally. Callers hold l.mu.
func (l *Log) sealLocked() error {
	if err := l.syncActiveLocked(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealedN++
	l.sealedB += l.size
	l.size = 0
	l.dirty = false
	l.f = nil
	// The seal's fsync makes every appended record durable, whatever the
	// policy — this is why SyncNever replication still ships sealed
	// segments.
	l.advanceDurableLocked(l.nextLSN - 1)
	return nil
}

// fail records a fatal append-path error and returns it. Callers hold
// l.mu.
func (l *Log) fail(err error) error {
	if l.fatalErr == nil {
		l.fatalErr = err
	}
	return err
}

// advanceDurableLocked records that every LSN through lsn is on stable
// storage and wakes WaitDurable callers. Callers hold l.mu and have just
// completed the fsync that covers lsn.
func (l *Log) advanceDurableLocked(lsn uint64) {
	if lsn <= l.durable.Load() {
		return
	}
	l.durable.Store(lsn)
	close(l.durableCh)
	l.durableCh = make(chan struct{})
}

// DurableLSN returns the highest LSN known to be on stable storage: the
// horizon replication may ship to followers. Under SyncAlways it tracks
// every append; under SyncInterval it advances on the background flush
// cadence; under SyncNever only on rotation, explicit Sync, or Close.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// ErrLogClosed reports a wait or stream cut off by Close.
var ErrLogClosed = errors.New("wal: log closed")

// WaitDurable blocks until DurableLSN() >= lsn, the context is done, or
// the log is closed.
func (l *Log) WaitDurable(ctx context.Context, lsn uint64) error {
	for {
		if l.durable.Load() >= lsn {
			return nil
		}
		l.mu.Lock()
		if l.durable.Load() >= lsn {
			l.mu.Unlock()
			return nil
		}
		if l.closed {
			l.mu.Unlock()
			return ErrLogClosed
		}
		ch := l.durableCh
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Append assigns the record the next LSN, frames it into the active
// segment (rotating first if it would overflow) and applies the fsync
// policy. It returns the assigned LSN and the framed size in bytes.
func (l *Log) Append(rec Record) (lsn uint64, n int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, errors.New("wal: append on closed log")
	}
	if l.fatalErr != nil {
		return 0, 0, l.fatalErr
	}
	t0 := time.Now()
	rec.LSN = l.nextLSN
	frame, err := encodeFrame(nil, &rec)
	if err != nil {
		// Nothing reached the file: an encode failure is not fatal.
		return 0, 0, err
	}
	if l.size > 0 && l.size+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, 0, l.fail(err)
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		// The frame may be partially on disk; appending anything after it
		// would turn the torn frame into interior corruption.
		return 0, 0, l.fail(fmt.Errorf("wal: append record %d: %w", rec.LSN, err))
	}
	l.size += int64(len(frame))
	l.nextLSN++
	if l.opts.Policy == SyncAlways {
		if err := l.syncActiveLocked(); err != nil {
			// The record is written but not durable, and the caller will
			// not acknowledge it; a retry would duplicate the LSN stream.
			return 0, 0, l.fail(fmt.Errorf("wal: sync record %d: %w", rec.LSN, err))
		}
		l.advanceDurableLocked(rec.LSN)
	} else {
		l.dirty = true
	}
	l.metrics.appendSeconds.Observe(time.Since(t0).Seconds())
	l.metrics.appends.Inc()
	l.metrics.appendBytes.Add(uint64(len(frame)))
	return rec.LSN, len(frame), nil
}

// AppendBatchFrames appends pre-numbered records that arrived already
// framed — the replication follower's ingestion path. frames[i] must be
// the verified wire frame of recs[i] (ReadFrameRaw returns both) and is
// written verbatim, so the follower's log holds the primary's bytes
// rather than a re-encoding. The records carry the primary's LSNs, so
// unlike Append the batch must continue this log's sequence exactly
// (recs[i].LSN == nextLSN+i) and is rejected whole, before the first
// byte reaches the file, if it does not. Frames rotate as usual and
// share ONE fsync under SyncAlways; a write or sync failure poisons the
// log exactly as in Append. Returns the total framed bytes.
func (l *Log) AppendBatchFrames(recs []Record, frames [][]byte) (int, error) {
	if len(frames) != len(recs) {
		return 0, fmt.Errorf("wal: %d frames for %d records", len(frames), len(recs))
	}
	if len(recs) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: append on closed log")
	}
	if l.fatalErr != nil {
		return 0, l.fatalErr
	}
	t0 := time.Now()
	for i := range recs {
		if recs[i].LSN != l.nextLSN+uint64(i) {
			return 0, fmt.Errorf("wal: batch record %d has lsn %d, want %d (batch must continue the sequence)",
				i, recs[i].LSN, l.nextLSN+uint64(i))
		}
	}
	total := 0
	for i, frame := range frames {
		if l.size > 0 && l.size+int64(len(frame)) > l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				return total, l.fail(err)
			}
		}
		if _, err := l.f.Write(frame); err != nil {
			return total, l.fail(fmt.Errorf("wal: append record %d: %w", recs[i].LSN, err))
		}
		l.size += int64(len(frame))
		l.nextLSN++
		total += len(frame)
	}
	if l.opts.Policy == SyncAlways {
		if err := l.syncActiveLocked(); err != nil {
			return total, l.fail(fmt.Errorf("wal: sync batch through %d: %w", recs[len(recs)-1].LSN, err))
		}
		l.advanceDurableLocked(recs[len(recs)-1].LSN)
	} else {
		l.dirty = true
	}
	l.metrics.appendSeconds.Observe(time.Since(t0).Seconds())
	l.metrics.appends.Add(uint64(len(recs)))
	l.metrics.appendBytes.Add(uint64(total))
	return total, nil
}

// rotateLocked seals the active segment and starts a new one. Callers
// hold l.mu.
func (l *Log) rotateLocked() error {
	t0 := time.Now()
	if err := l.sealLocked(); err != nil {
		return err
	}
	if err := l.createSegmentLocked(); err != nil {
		return err
	}
	l.metrics.rotateSeconds.Observe(time.Since(t0).Seconds())
	l.metrics.rotations.Inc()
	return nil
}

// Rotate seals the active segment (if it has any records) and starts a
// fresh one. Checkpoints rotate before snapshotting so every record the
// snapshot covers lives in a sealed — hence prunable — segment.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: rotate on closed log")
	}
	if l.fatalErr != nil {
		return l.fatalErr
	}
	if l.size == 0 {
		return nil
	}
	if err := l.rotateLocked(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Sync flushes buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fatalErr != nil {
		return l.fatalErr
	}
	if l.closed || !l.dirty || l.f == nil {
		return nil
	}
	if err := l.syncActiveLocked(); err != nil {
		return l.fail(fmt.Errorf("wal: sync: %w", err))
	}
	l.dirty = false
	l.advanceDurableLocked(l.nextLSN - 1)
	return nil
}

// flusher is the SyncInterval background loop. A flush failure is sticky:
// it surfaces on the next Append rather than being silently retried,
// because an acknowledgement must never outrun the disk by more than one
// interval.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty && l.fatalErr == nil && l.f != nil {
				if err := l.syncActiveLocked(); err != nil {
					l.fatalErr = fmt.Errorf("wal: background sync: %w", err)
				} else {
					l.dirty = false
					l.advanceDurableLocked(l.nextLSN - 1)
				}
			}
			l.mu.Unlock()
		}
	}
}

// RemoveObsolete deletes sealed segments whose every record has
// LSN <= throughLSN — the segments a checkpoint at throughLSN has made
// redundant. The active segment is never removed. A sealed segment's
// coverage ends where the next segment's name begins, so only segments
// entirely behind the checkpoint go.
func (l *Log) RemoveObsolete(throughLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	names, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(names); i++ { // names[len-1] is the active segment
		nextFirst, ok := parseSegmentName(names[i+1])
		if !ok || nextFirst > throughLSN+1 {
			break // later segments still hold live records
		}
		path := filepath.Join(l.dir, names[i])
		info, statErr := os.Stat(path)
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: remove obsolete segment: %w", err)
		}
		l.sealedN--
		if statErr == nil {
			l.sealedB -= info.Size()
		}
		if first, ok := parseSegmentName(names[i+1]); ok {
			l.oldest = first
		}
		removed = true
	}
	if removed {
		return fsutil.SyncDir(l.dir)
	}
	return nil
}

// OldestLSN returns the first LSN of the oldest retained segment — the
// earliest point a replication stream can resume from. A follower whose
// applied LSN is below OldestLSN-1 can no longer catch up from this log
// and must be re-seeded.
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldest
}

// Stats is a point-in-time description of the log, for monitoring.
type Stats struct {
	Segments     int    `json:"segments"`     // sealed + active
	Bytes        int64  `json:"bytes"`        // total bytes on disk
	ActiveBytes  int64  `json:"activeBytes"`  // bytes in the active segment
	SegmentBytes int64  `json:"segmentBytes"` // rotation threshold
	LastLSN      uint64 `json:"lastLSN"`      // last assigned LSN (0: none yet)
	DurableLSN   uint64 `json:"durableLSN"`   // highest fsynced LSN — the shipping horizon
	OldestLSN    uint64 `json:"oldestLSN"`    // first LSN of the oldest retained segment
	Fsync        string `json:"fsync"`        // policy name
}

// Stats reports the current shape of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:     l.sealedN + 1,
		Bytes:        l.sealedB + l.size,
		ActiveBytes:  l.size,
		SegmentBytes: l.opts.SegmentBytes,
		LastLSN:      l.nextLSN - 1,
		DurableLSN:   l.durable.Load(),
		OldestLSN:    l.oldest,
		Fsync:        l.opts.Policy.String(),
	}
}

// Close flushes and closes the log. Records appended before a clean Close
// are durable under every policy.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// Wake WaitDurable callers so streams end promptly with ErrLogClosed.
	close(l.durableCh)
	l.durableCh = make(chan struct{})
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	if l.f == nil { // active segment lost to a failed rotation
		return l.fatalErr
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	l.durable.Store(l.nextLSN - 1)
	return nil
}
