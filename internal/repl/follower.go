package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bestring/internal/fsutil"
	"bestring/internal/imagedb"
	"bestring/internal/wal"
)

// Follower tuning defaults.
const (
	// DefaultBatchMax caps the records coalesced into one
	// ApplyReplicatedFrames (one follower fsync, one published version).
	DefaultBatchMax = 256
	// ackInterval throttles ack POSTs: at most one per interval per
	// steady state, plus one whenever a heartbeat shows the follower
	// fully caught up.
	ackInterval = 250 * time.Millisecond
	// reconnect backoff bounds.
	backoffMin = 200 * time.Millisecond
	backoffMax = 5 * time.Second
)

// primaryMarker is the file recording which primary's history this
// follower embodies (the primary's STOREID). Written before the first
// record is ever applied; checked on every connect. A mismatch means
// the follower's log belongs to a different history — syncing would
// interleave two pasts, so it refuses (ErrDiverged).
const primaryMarker = "PRIMARY"

func loadPrimaryMarker(dir string) (string, bool) {
	data, err := os.ReadFile(filepath.Join(dir, primaryMarker))
	if err != nil {
		return "", false
	}
	id := strings.TrimSpace(string(data))
	return id, id != ""
}

func writePrimaryMarker(dir, id string) error {
	err := fsutil.AtomicWriteFile(filepath.Join(dir, primaryMarker), func(w io.Writer) error {
		_, werr := fmt.Fprintln(w, id)
		return werr
	})
	if err != nil {
		return fmt.Errorf("repl: write primary marker: %w", err)
	}
	return nil
}

// Follower connects a replica store to a primary and keeps it in sync:
// stream, batch, apply, ack, reconnect-with-resume on any transient
// failure. Run blocks until the context ends or the stream fails
// permanently (divergence, pruned backlog, or a record that refuses to
// apply).
type Follower struct {
	store      *imagedb.DB
	dir        string // the store's data directory, home of the primary marker
	primaryURL string // e.g. "http://127.0.0.1:8081"
	client     *http.Client
	batchMax   int

	reconnects atomic.Uint64
	remoteLSN  atomic.Uint64 // primary durable LSN last observed (headers/heartbeats)

	metrics      *followerMetrics
	lastBeat     atomic.Int64 // unixnano of the last frame off the stream
	lastCaughtUp atomic.Int64 // unixnano of the last applied >= remote observation

	mu        sync.Mutex
	connected bool
	lastErr   string
}

// FollowerStatus describes the sync loop, for /healthz on a follower.
type FollowerStatus struct {
	PrimaryURL string `json:"primaryURL"`
	Connected  bool   `json:"connected"`
	AppliedLSN uint64 `json:"appliedLSN"`
	// PrimaryDurableLSN is the primary's durable horizon as last observed
	// (connect headers and heartbeats); PrimaryDurableLSN - AppliedLSN is
	// the replication lag in records.
	PrimaryDurableLSN uint64 `json:"primaryDurableLSN"`
	Reconnects        uint64 `json:"reconnects"`
	LastError         string `json:"lastError,omitempty"`
}

// NewFollower builds the sync loop for store (which must be open with
// StoreOptions.Replica) against the primary at primaryURL. batchMax <= 0
// uses DefaultBatchMax. A volatile engine has no log to replay into and
// yields ErrNotDurable.
func NewFollower(store *imagedb.DB, primaryURL string, batchMax int) (*Follower, error) {
	if !store.Durable() {
		return nil, ErrNotDurable
	}
	if !store.Replica() {
		return nil, errors.New("repl: follower store must be opened with Replica: true")
	}
	if _, err := url.Parse(primaryURL); err != nil {
		return nil, fmt.Errorf("repl: bad primary url: %w", err)
	}
	if batchMax <= 0 {
		batchMax = DefaultBatchMax
	}
	f := &Follower{
		store:      store,
		dir:        store.StoreStats().Dir,
		primaryURL: strings.TrimRight(primaryURL, "/"),
		client:     &http.Client{}, // no overall timeout: the stream is unbounded
		batchMax:   batchMax,
	}
	f.metrics = newFollowerMetrics(f)
	f.lastCaughtUp.Store(time.Now().UnixNano())
	return f, nil
}

// Status reports the sync loop's current state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		PrimaryURL:        f.primaryURL,
		Connected:         f.connected,
		AppliedLSN:        f.store.AppliedLSN(),
		PrimaryDurableLSN: f.remoteLSN.Load(),
		Reconnects:        f.reconnects.Load(),
		LastError:         f.lastErr,
	}
}

func (f *Follower) setState(connected bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.connected = connected
	if err != nil {
		f.lastErr = err.Error()
	} else {
		f.lastErr = ""
	}
}

// Run drives the sync loop until ctx ends (returns nil) or a permanent
// error: ErrDiverged, ErrSnapshotNeeded, or an apply failure. Transient
// failures — refused connections, dropped streams — reconnect with
// exponential backoff, resuming from the store's own applied LSN, which
// is exactly what survives a follower crash (ApplyReplicatedFrames wrote
// every applied record to the local log before publishing it).
func (f *Follower) Run(ctx context.Context) error {
	// Divergence check that needs no connection: a non-empty store with
	// no primary marker was written by something other than a follower
	// loop, so its history is not resumable against any primary.
	if _, ok := loadPrimaryMarker(f.dir); !ok && f.store.AppliedLSN() > 0 {
		err := fmt.Errorf("%w: store has %d records but no recorded primary", ErrDiverged, f.store.AppliedLSN())
		f.setState(false, err)
		return err
	}
	backoff := backoffMin
	for {
		err := f.streamOnce(ctx)
		f.setState(false, err)
		switch {
		case ctx.Err() != nil:
			return nil
		case err == nil:
			backoff = backoffMin // clean stream end (primary shutdown): retry promptly
		case errors.Is(err, ErrDiverged), errors.Is(err, ErrSnapshotNeeded):
			return err
		case isPermanentApplyError(err):
			return err
		}
		f.reconnects.Add(1)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// applyError marks a record that failed validate→apply on the replica:
// the stream is poisoned (the primary's history no longer replays onto
// this store) and reconnecting cannot fix it.
type applyError struct{ err error }

func (e *applyError) Error() string { return "repl: apply: " + e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

func isPermanentApplyError(err error) bool {
	var ae *applyError
	return errors.As(err, &ae)
}

// streamOnce opens one stream and consumes it until it breaks. A nil
// return means the stream ended cleanly from the primary side.
func (f *Follower) streamOnce(ctx context.Context) error {
	after := f.store.AppliedLSN()
	u := fmt.Sprintf("%s%s?after=%d&follower=%s&proto=%s",
		f.primaryURL, StreamPath, after, url.QueryEscape(f.store.StoreID()), ProtoVersion)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return fmt.Errorf("%w: primary refused: %s", ErrDiverged, readErrorBody(resp.Body))
	case http.StatusGone:
		return fmt.Errorf("%w: %s", ErrSnapshotNeeded, readErrorBody(resp.Body))
	default:
		return fmt.Errorf("repl: stream request: %s: %s", resp.Status, readErrorBody(resp.Body))
	}
	if v := resp.Header.Get(HeaderProto); v != ProtoVersion {
		return fmt.Errorf("repl: primary speaks protocol %q, want %q", v, ProtoVersion)
	}
	primaryID := resp.Header.Get(HeaderStoreID)
	if primaryID == "" {
		return errors.New("repl: primary sent no store id")
	}
	if v, err := strconv.ParseUint(resp.Header.Get(HeaderDurableLSN), 10, 64); err == nil {
		f.remoteLSN.Store(v)
	}
	// Identity check before a single record applies: the recorded
	// primary must be THIS primary.
	if recorded, ok := loadPrimaryMarker(f.dir); ok {
		if recorded != primaryID {
			return fmt.Errorf("%w: store follows primary %s, connected to %s", ErrDiverged, recorded, primaryID)
		}
	} else {
		if f.store.AppliedLSN() > 0 {
			return fmt.Errorf("%w: store has records but no recorded primary", ErrDiverged)
		}
		if err := writePrimaryMarker(f.dir, primaryID); err != nil {
			return err
		}
	}
	f.setState(true, nil)
	return f.consume(ctx, resp.Body)
}

// consume reads frames off one stream, coalescing bursts into batches:
// records are drained into a channel by a reader goroutine, and the
// apply loop takes everything immediately available (up to batchMax)
// before paying the batch's fsync — mirroring the primary's group
// commit, follower-side.
func (f *Follower) consume(ctx context.Context, body io.Reader) error {
	type readResult struct {
		rec   wal.Record
		frame []byte // exact wire bytes, appended to the local log verbatim
		err   error
	}
	// Buffer two full batches ahead: while the apply loop pays a batch's
	// fsync the reader keeps decoding, so catch-up stays apply-bound
	// rather than alternating decode/apply.
	ch := make(chan readResult, 2*f.batchMax)
	done := make(chan struct{})
	defer close(done) // unblocks the reader if the apply loop exits first
	go func() {
		br := bufio.NewReaderSize(body, 1<<20)
		for {
			rec, frame, err := wal.ReadFrameRaw(br)
			select {
			case ch <- readResult{rec: rec, frame: frame, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	var batch []wal.Record
	var frames [][]byte
	lastAck := time.Time{}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		t0 := time.Now()
		if err := f.store.ApplyReplicatedFrames(batch, frames); err != nil {
			return &applyError{err: err}
		}
		f.metrics.applySeconds.Observe(time.Since(t0).Seconds())
		f.metrics.appliedBatches.Inc()
		f.metrics.appliedRecords.Add(uint64(len(batch)))
		if f.store.AppliedLSN() >= f.remoteLSN.Load() {
			f.lastCaughtUp.Store(time.Now().UnixNano())
		}
		batch = batch[:0]
		frames = frames[:0]
		if time.Since(lastAck) >= ackInterval {
			f.ack(ctx)
			lastAck = time.Now()
		}
		return nil
	}
	for {
		var first readResult
		select {
		case <-ctx.Done():
			return ctx.Err()
		case first = <-ch:
		}
		for {
			if first.err != nil {
				if ferr := flush(); ferr != nil {
					return ferr
				}
				if errors.Is(first.err, io.EOF) {
					return nil // clean shutdown on the primary side
				}
				return first.err
			}
			f.lastBeat.Store(time.Now().UnixNano())
			if first.rec.Op == OpHeartbeat {
				// Idle horizon marker: flush whatever is pending and ack so
				// the primary's lag view (and prune floor) advances even
				// without writes.
				if err := flush(); err != nil {
					return err
				}
				f.remoteLSN.Store(first.rec.LSN)
				if f.store.AppliedLSN() >= first.rec.LSN {
					f.lastCaughtUp.Store(time.Now().UnixNano())
				}
				f.ack(ctx)
				lastAck = time.Now()
			} else {
				if first.rec.LSN > f.remoteLSN.Load() {
					f.remoteLSN.Store(first.rec.LSN)
				}
				batch = append(batch, first.rec)
				frames = append(frames, first.frame)
				if len(batch) >= f.batchMax {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			// Drain whatever already arrived; commit the batch once the
			// channel runs dry.
			select {
			case first = <-ch:
				continue
			default:
			}
			// Dry channel but still behind the primary's durable horizon:
			// the missing records are already in flight, so wait for them
			// to fill the batch instead of paying a publish per scheduling
			// quantum. Never waits at the live edge (applied == remote), so
			// steady-state latency is unaffected.
			if len(batch) > 0 && len(batch) < f.batchMax &&
				f.store.AppliedLSN()+uint64(len(batch)) < f.remoteLSN.Load() {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case first = <-ch:
					continue
				}
			}
			break
		}
		if err := flush(); err != nil {
			return err
		}
	}
}

// ack posts the follower's applied LSN. Best-effort: a lost ack only
// delays pruning and lag reporting, never correctness.
func (f *Follower) ack(ctx context.Context) {
	u := fmt.Sprintf("%s%s?follower=%s&lsn=%d",
		f.primaryURL, AckPath, url.QueryEscape(f.store.StoreID()), f.store.AppliedLSN())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// readErrorBody extracts a short error message from a failed response.
func readErrorBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(data))
}
