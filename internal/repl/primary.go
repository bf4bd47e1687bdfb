package repl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bestring/internal/imagedb"
	"bestring/internal/wal"
)

// DefaultHeartbeat is the idle-stream keepalive cadence.
const DefaultHeartbeat = time.Second

// followerTTL expires registry entries for followers that neither
// stream nor ack: a follower gone this long stops constraining WAL
// pruning (it will be told to re-seed if it ever returns behind the
// retained log). Connected streams never expire.
const followerTTL = 15 * time.Minute

// Primary is the replication feed of one store: it serves the stream
// and ack endpoints, tracks connected followers, and pins the store's
// WAL retention to the slowest follower's acknowledged position.
type Primary struct {
	store     *imagedb.DB
	heartbeat time.Duration

	metrics *primaryMetrics

	mu        sync.Mutex
	followers map[string]*followerState
}

// followerState is the registry entry for one follower id.
type followerState struct {
	ackedLSN    uint64
	streamedLSN uint64
	connections int
	lastSeen    time.Time
}

// FollowerInfo is one follower's registry entry, for /healthz.
type FollowerInfo struct {
	ID          string `json:"id"`
	AckedLSN    uint64 `json:"ackedLSN"`
	StreamedLSN uint64 `json:"streamedLSN"`
	Connected   bool   `json:"connected"`
	LastSeenAgo string `json:"lastSeenAgo"`
}

// NewPrimary wraps a durable store as a replication primary and installs
// the retention floor: checkpoints stop pruning WAL segments a
// registered follower has not acknowledged. heartbeat <= 0 uses
// DefaultHeartbeat. A volatile engine has no log to stream and yields
// ErrNotDurable.
func NewPrimary(store *imagedb.DB, heartbeat time.Duration) (*Primary, error) {
	if !store.Durable() {
		return nil, ErrNotDurable
	}
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat
	}
	p := &Primary{
		store:     store,
		heartbeat: heartbeat,
		followers: make(map[string]*followerState),
	}
	p.metrics = newPrimaryMetrics(p)
	store.SetPruneFloor(p.minAckedLSN)
	return p, nil
}

// Register installs the replication endpoints on mux.
func (p *Primary) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET "+StreamPath, p.handleStream)
	mux.HandleFunc("POST "+AckPath, p.handleAck)
}

// touch returns the (created-if-needed) registry entry for id with
// lastSeen refreshed. Callers hold p.mu.
func (p *Primary) touchLocked(id string) *followerState {
	f := p.followers[id]
	if f == nil {
		f = &followerState{}
		p.followers[id] = f
	}
	f.lastSeen = time.Now()
	return f
}

// minAckedLSN is the retention floor: the smallest acknowledged LSN
// across live followers (connected, or seen within followerTTL).
// MaxUint64 — no constraint — when no live follower is registered.
func (p *Primary) minAckedLSN() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	floor := uint64(math.MaxUint64)
	for id, f := range p.followers {
		if f.connections == 0 && time.Since(f.lastSeen) > followerTTL {
			delete(p.followers, id)
			continue
		}
		if f.ackedLSN < floor {
			floor = f.ackedLSN
		}
	}
	return floor
}

// Followers reports the registry for /healthz, sorted by the map's
// iteration order (callers sort if they need determinism).
func (p *Primary) Followers() []FollowerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FollowerInfo, 0, len(p.followers))
	for id, f := range p.followers {
		out = append(out, FollowerInfo{
			ID:          id,
			AckedLSN:    f.ackedLSN,
			StreamedLSN: f.streamedLSN,
			Connected:   f.connections > 0,
			LastSeenAgo: time.Since(f.lastSeen).Round(time.Millisecond).String(),
		})
	}
	return out
}

// handleAck records a follower's applied LSN: POST /repl/v1/ack
// ?follower=<id>&lsn=<applied>.
func (p *Primary) handleAck(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("follower")
	if id == "" {
		http.Error(w, "missing follower id", http.StatusBadRequest)
		return
	}
	lsn, err := strconv.ParseUint(r.URL.Query().Get("lsn"), 10, 64)
	if err != nil {
		http.Error(w, "bad lsn", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	f := p.touchLocked(id)
	if lsn > f.ackedLSN {
		f.ackedLSN = lsn
	}
	p.mu.Unlock()
	p.metrics.acks.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleStream serves GET /repl/v1/stream?after=<lsn>&follower=<id>:
// an unbounded chunked response of WAL frames from after+1 onward,
// heartbeats interleaved while idle. The stream ends only when the
// client disconnects or the store shuts down.
func (p *Primary) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("follower")
	if id == "" {
		http.Error(w, "missing follower id", http.StatusBadRequest)
		return
	}
	after := uint64(0)
	if s := q.Get("after"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad after lsn", http.StatusBadRequest)
			return
		}
		after = v
	}
	durable := p.store.DurableLSN()
	if after > durable {
		// The follower claims records this primary does not have: it is
		// ahead of us, which one history cannot produce. Feeding it would
		// interleave two unrelated histories.
		http.Error(w, fmt.Sprintf("follower at lsn %d is ahead of primary durable lsn %d", after, durable),
			http.StatusConflict)
		return
	}
	if oldest := p.store.OldestLSN(); after+1 < oldest {
		http.Error(w, fmt.Sprintf("lsn %d pruned (oldest retained %d): re-seed from snapshot", after+1, oldest),
			http.StatusGone)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderProto, ProtoVersion)
	w.Header().Set(HeaderStoreID, p.store.StoreID())
	w.Header().Set(HeaderDurableLSN, strconv.FormatUint(durable, 10))
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	p.metrics.streams.Inc()
	p.mu.Lock()
	f := p.touchLocked(id)
	f.connections++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		f.connections--
		f.lastSeen = time.Now()
		p.mu.Unlock()
	}()

	tailer := p.store.TailWAL(after)
	defer tailer.Close()
	ctx := r.Context()
	var buf []byte
	for {
		lsn, frame, err := p.nextOrHeartbeat(ctx, tailer)
		if err != nil {
			return // client gone, store closed, or position pruned mid-stream
		}
		heartbeat := frame == nil
		if heartbeat {
			p.metrics.heartbeats.Inc()
			// Heartbeats are synthesised, so they are the only records that
			// pay an encode; real records forward the stored bytes verbatim.
			rec := wal.Record{Op: OpHeartbeat, LSN: lsn}
			if buf, err = wal.EncodeFrame(buf[:0], &rec); err != nil {
				return
			}
			frame = buf
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
		if !heartbeat {
			p.mu.Lock()
			f.streamedLSN = lsn
			f.lastSeen = time.Now()
			p.mu.Unlock()
			// Flush only once the follower is fully caught up: during
			// catch-up the records coalesce into large writes for free.
			if tailer.NextLSN() <= p.store.DurableLSN() {
				continue
			}
		}
		flusher.Flush()
	}
}

// nextOrHeartbeat waits up to the heartbeat interval for the next
// record's LSN and raw wire frame, signalling a heartbeat (LSN =
// current durable, nil frame) when the stream is idle. The frame is
// valid until the next call.
func (p *Primary) nextOrHeartbeat(ctx context.Context, tailer *wal.Tailer) (uint64, []byte, error) {
	hctx, cancel := context.WithTimeout(ctx, p.heartbeat)
	defer cancel()
	lsn, frame, err := tailer.NextRaw(hctx)
	if err == nil {
		return lsn, frame, nil
	}
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		return p.store.DurableLSN(), nil, nil
	}
	return 0, nil, err
}
