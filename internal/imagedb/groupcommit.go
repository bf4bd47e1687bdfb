package imagedb

import (
	"runtime"
	"sync"
	"time"

	"bestring/internal/wal"
)

// This file is the group-commit layer — the only way a local mutation
// reaches the log. (A volatile engine has no log and no batcher: each
// write commits inline as a group of one through the same commitGroup.)
// If every mutation paid its own WAL frame, fsync and MVCC publish,
// FsyncAlways throughput would be capped at the disk's sync rate no
// matter how many writers run. Instead concurrent callers enqueue
// *prepared* mutations (validation that needs no database state,
// conversion and cloning all happen caller-side, in parallel —
// DB.prepare) into a commit queue; a single committer goroutine drains
// the queue and commits the whole batch as ONE WAL frame, ONE fsync and
// ONE published version. Each caller blocks until its group's fsync
// completes and observes its own result: a mutation that fails
// validation against the batch's transaction state fails only that
// caller, never the rest of the group. A solo writer is a group of one,
// written as the plain record it always was.
//
// Commit protocol, in order (the ordering is the durability story):
//
//  1. drain   — the committer takes every queued request (up to the size
//               cap), lingering at most commitWindow for more.
//  2. apply   — under the writer lock, each request validates
//               against and applies to one shared copy-on-write txn; a
//               request that fails (duplicate id, missing id, conversion
//               error) is excluded and its error recorded.
//  3. frame   — the surviving mutations encode as one WAL record (a
//               plain record when alone, an OpGroup envelope otherwise)
//               and append as one frame: one CRC, one LSN.
//  4. fsync   — the append syncs per policy; under FsyncAlways the group
//               shares a single fsync.
//  5. publish — the txn publishes as ONE new version (one epoch bump);
//               a reader sees the whole group or none of it.
//  6. ack     — every caller in the group is released and reads its own
//               result.
//
// If the append fails, nothing publishes and every surviving caller gets
// the error — the WAL holds no frame for the group (encode failures
// write nothing; write/sync failures poison the log fatally), so the
// durable state and the in-memory state cannot diverge.
//
// The linger heuristic is adaptive rather than a fixed window: the
// committer waits for more work only while the forming batch is smaller
// than the PREVIOUS group, bounded by commitWindow. A lone sequential
// writer therefore never waits (its previous group was 1), while a burst
// of N writers converges on groups of ~N within two commits. This
// matters because an fsync here costs ~100-200µs: a fixed 1ms linger
// would ADD latency for sequential writers instead of removing it.

// DefaultCommitBatch caps the mutations coalesced into one commit group.
const DefaultCommitBatch = 128

// commitWindow only bounds the adaptive linger (see batcher.linger),
// which leaves after two quiet yields long before the bound, so it is
// deliberately generous — and a constant: no workload ever set another
// value.
const commitWindow = time.Millisecond

// maxGroupBytes splits an oversized drain into multiple groups so the
// encoded frame stays safely under the WAL's 64 MiB record bound. Size
// accounting uses conservative per-request estimates (sizeHint), hence
// the 2x headroom.
const maxGroupBytes = 32 << 20

// commitReq is one caller's prepared mutation waiting in the commit
// queue. The caller blocks on done; the committer fills err (nil on
// success) before closing it.
type commitReq struct {
	*mutation
	size int // conservative encoded-frame contribution, bytes (sizeHint)

	// enqueuedAt is stamped by enqueue and feeds the commit-queue-wait
	// histogram; zero on an inline commit, which never queues.
	enqueuedAt time.Time

	err  error
	done chan struct{}
}

// batcher owns the commit queue and the committer goroutine.
type batcher struct {
	db  *DB
	max int // size cap per commit group

	mu     sync.Mutex
	queue  []*commitReq
	closed bool
	// hold, when non-nil, parks the committer before its next drain.
	// Tests use it to assemble deterministic commit groups; production
	// code never sets it.
	hold chan struct{}

	// wake carries "the queue may be non-empty" to the committer. It is
	// buffered (capacity 1) and sent non-blocking: enqueue appends under
	// mu BEFORE sending, so whenever the queue is non-empty a wake token
	// is present or about to be — the committer can never sleep on a
	// populated queue.
	wake chan struct{}
	done chan struct{} // closed when the committer goroutine exits
}

func newBatcher(db *DB, max int) *batcher {
	b := &batcher{
		db:   db,
		max:  max,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go b.run()
	return b
}

// enqueue queues a request for the next commit group.
func (b *batcher) enqueue(req *commitReq) error {
	req.enqueuedAt = time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrStoreClosed
	}
	b.queue = append(b.queue, req)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	return nil
}

// submit queues the mutation and blocks until its commit group resolves.
func (b *batcher) submit(mu *mutation, size int) error {
	req := &commitReq{mutation: mu, size: size, done: make(chan struct{})}
	if err := b.enqueue(req); err != nil {
		return err
	}
	<-req.done
	return req.err
}

// take removes up to n queued requests, reporting whether the batcher
// has been closed.
func (b *batcher) take(n int) ([]*commitReq, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n >= len(b.queue) {
		out := b.queue
		b.queue = nil
		return out, b.closed
	}
	out := make([]*commitReq, n)
	copy(out, b.queue[:n])
	b.queue = b.queue[n:]
	return out, b.closed
}

// queued reports the current queue depth (used by tests).
func (b *batcher) queued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// run is the committer goroutine: drain, linger, commit, repeat; exit
// once closed with an empty queue. Draining continues after close so
// every request accepted by enqueue is committed — that is Close's drain
// guarantee.
func (b *batcher) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		hold := b.hold
		b.mu.Unlock()
		if hold != nil {
			<-hold
		}
		batch, closed := b.take(b.max)
		if len(batch) == 0 {
			if closed {
				return
			}
			<-b.wake
			continue
		}
		if !closed {
			batch = b.linger(batch)
		}
		b.db.commitBatch(batch)
	}
}

// linger collects the rest of the current arrival wave: concurrent
// writers re-enter the queue within tens of microseconds of their
// previous ack, so the committer yields the processor a couple of times
// — letting every runnable writer reach its enqueue — and commits once
// the queue stays empty across consecutive yields. Yielding costs
// microseconds, so a solo sequential writer loses nothing, while a
// timer-based gap would cost a near-millisecond scheduler sleep per
// group on an otherwise idle machine. The window bounds the total
// collection time for pathological arrival patterns.
func (b *batcher) linger(batch []*commitReq) []*commitReq {
	start := time.Now()
	quiet := 0
	for len(batch) < b.max && quiet < 2 && time.Since(start) < commitWindow {
		runtime.Gosched()
		more, closed := b.take(b.max - len(batch))
		batch = append(batch, more...)
		if closed {
			return batch
		}
		if len(more) == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	return batch
}

// close stops accepting requests, waits for the committer to drain every
// already-accepted request, and returns once the committer has exited.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	<-b.done
}

// commitBatch commits a drained batch, splitting it into multiple groups
// only if the conservative size estimate would overflow a WAL record.
func (db *DB) commitBatch(reqs []*commitReq) {
	for len(reqs) > 0 {
		n, bytes := 1, reqs[0].size
		for n < len(reqs) && bytes+reqs[n].size <= maxGroupBytes {
			bytes += reqs[n].size
			n++
		}
		db.commitGroup(reqs[:n])
		reqs = reqs[n:]
	}
}

// commitGroup runs steps 2-6 of the commit protocol for one group: apply
// all requests to one shared txn, append them as one WAL frame, publish
// one new version, release every caller.
func (db *DB) commitGroup(reqs []*commitReq) {
	defer func() {
		for _, r := range reqs {
			close(r.done)
		}
	}()
	met := db.metrics
	t0 := time.Now()
	for _, r := range reqs {
		if !r.enqueuedAt.IsZero() {
			met.queueWaitSeconds.Observe(t0.Sub(r.enqueuedAt).Seconds())
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// A batcher drains what it accepted before Close; an inline commit
	// has no queue to drain and is refused once the DB is closed.
	if db.closed && db.batcher == nil {
		for _, r := range reqs {
			r.err = ErrStoreClosed
		}
		return
	}

	m := db.begin()
	recs := make([]wal.Record, 0, len(reqs))
	accepted := make([]*commitReq, 0, len(reqs))
	for _, r := range reqs {
		if r.err = m.apply(r.mutation); r.err == nil {
			recs = append(recs, r.rec)
			accepted = append(accepted, r)
		}
	}
	rejected := len(reqs) - len(accepted)
	if len(recs) == 0 {
		met.observeCommit(0, rejected) // every request failed validation; nothing to log or publish
		return
	}
	if _, err := db.commitLocked(m, recs, nil); err != nil {
		for _, r := range accepted {
			r.err = err
		}
		met.observeCommit(0, rejected)
		return
	}
	met.observeCommit(len(accepted), rejected)
	met.groupSeconds.Observe(time.Since(t0).Seconds())
}

// CommitStats describes the group committer, for /healthz and tooling.
type CommitStats struct {
	// Enabled reports whether this engine commits local mutations (false
	// only on a replica, whose state advances by replication alone).
	Enabled bool `json:"enabled"`
	// Window is the linger bound, e.g. "1ms".
	Window string `json:"window,omitempty"`
	// MaxBatch is the configured size cap per commit group.
	MaxBatch int `json:"maxBatch,omitempty"`
	// Groups counts published commit groups (one WAL frame, one fsync
	// and one version each).
	Groups uint64 `json:"groups"`
	// Mutations counts mutations committed through groups; Mutations /
	// Groups is the realised coalescing factor.
	Mutations uint64 `json:"mutations"`
	// Rejected counts per-caller validation failures inside groups —
	// failures that, by the isolation invariant, left the rest of their
	// group untouched.
	Rejected uint64 `json:"rejected"`
	// Largest is the biggest group committed this session.
	Largest uint64 `json:"largest"`
}
