package repl

import (
	"time"

	"bestring/internal/obs"
)

// primaryMetrics holds the primary-side stream instruments, built by
// NewPrimary on a registry of the primary's own.
type primaryMetrics struct {
	reg        *obs.Registry
	streams    *obs.Counter
	acks       *obs.Counter
	heartbeats *obs.Counter
}

// newPrimaryMetrics declares the primary's replication instruments.
// The follower lag vec is computed at scrape time from the same
// registry that drives WAL retention, so /metrics and the prune floor
// can never disagree.
func newPrimaryMetrics(p *Primary) *primaryMetrics {
	reg := obs.NewRegistry()
	m := &primaryMetrics{
		reg: reg,
		streams: reg.Counter("bestring_repl_streams_total",
			"Follower stream connections accepted."),
		acks: reg.Counter("bestring_repl_acks_total",
			"Follower ack posts recorded."),
		heartbeats: reg.Counter("bestring_repl_heartbeats_sent_total",
			"Heartbeat frames synthesised on idle streams."),
	}
	reg.GaugeFunc("bestring_repl_connected_followers",
		"Followers with at least one live stream right now.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			n := 0
			for _, f := range p.followers {
				if f.connections > 0 {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeVec("bestring_repl_follower_lag_lsn",
		"Records the follower has not yet acknowledged (primary durable LSN minus acked LSN).",
		"follower", func() []obs.Sample {
			durable := p.store.DurableLSN()
			p.mu.Lock()
			defer p.mu.Unlock()
			out := make([]obs.Sample, 0, len(p.followers))
			for id, f := range p.followers {
				lag := uint64(0)
				if durable > f.ackedLSN {
					lag = durable - f.ackedLSN
				}
				out = append(out, obs.Sample{Label: id, Value: float64(lag)})
			}
			return out
		})
	return m
}

// EnableMetrics exposes the primary's replication instruments on reg.
func (p *Primary) EnableMetrics(reg *obs.Registry) {
	reg.Include(p.metrics.reg)
}

// followerMetrics holds the apply-loop instruments, built by
// NewFollower on a registry of the follower's own.
type followerMetrics struct {
	reg            *obs.Registry
	appliedBatches *obs.Counter
	appliedRecords *obs.Counter
	applySeconds   *obs.Histogram
}

// newFollowerMetrics declares the follower's replication instruments.
// bestring_repl_follower_lag_lsn is deliberately the same family name
// the primary exports (there as a per-follower vec): both roles answer
// "how far behind is replication" under one series name.
func newFollowerMetrics(f *Follower) *followerMetrics {
	reg := obs.NewRegistry()
	m := &followerMetrics{
		reg: reg,
		appliedBatches: reg.Counter("bestring_repl_applied_batches_total",
			"Replicated batches applied (one follower fsync and one published version each)."),
		appliedRecords: reg.Counter("bestring_repl_applied_records_total",
			"Replicated records applied."),
		applySeconds: reg.Histogram("bestring_repl_apply_seconds",
			"Wall time of one ApplyReplicatedFrames batch: validate, apply, local WAL frame, fsync, publish.",
			obs.DurationBuckets()),
	}
	reg.GaugeFunc("bestring_repl_follower_lag_lsn",
		"Records behind the primary's durable horizon (remote durable LSN minus applied LSN).",
		func() float64 {
			remote := f.remoteLSN.Load()
			applied := f.store.AppliedLSN()
			if remote <= applied {
				return 0
			}
			return float64(remote - applied)
		})
	reg.GaugeFunc("bestring_repl_lag_seconds",
		"Seconds since this follower was last fully caught up (0 while at the live edge).",
		func() float64 {
			if f.remoteLSN.Load() <= f.store.AppliedLSN() {
				return 0
			}
			last := f.lastCaughtUp.Load()
			if last == 0 {
				return 0
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	reg.GaugeFunc("bestring_repl_heartbeat_age_seconds",
		"Seconds since the last frame (record or heartbeat) arrived from the primary.",
		func() float64 {
			last := f.lastBeat.Load()
			if last == 0 {
				return 0
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	reg.GaugeFunc("bestring_repl_connected",
		"1 while a stream to the primary is open, 0 between reconnects.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.connected {
				return 1
			}
			return 0
		})
	reg.CounterFunc("bestring_repl_reconnects_total",
		"Stream reconnect attempts after a transient failure.",
		func() float64 { return float64(f.reconnects.Load()) })
	return m
}

// EnableMetrics exposes the follower's replication instruments on reg.
func (f *Follower) EnableMetrics(reg *obs.Registry) {
	reg.Include(f.metrics.reg)
}
