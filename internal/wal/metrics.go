package wal

import (
	"time"

	"bestring/internal/obs"
)

// logMetrics holds the log's instruments, built by Open on a registry
// of the log's own and counted from the first append; EnableMetrics
// only exposes them. Append paths use them under l.mu.
type logMetrics struct {
	reg           *obs.Registry
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
	rotateSeconds *obs.Histogram
	appends       *obs.Counter
	appendBytes   *obs.Counter
	fsyncs        *obs.Counter
	rotations     *obs.Counter
}

// newLogMetrics declares the log's counters, latency histograms and
// shape gauges.
func newLogMetrics(l *Log) *logMetrics {
	reg := obs.NewRegistry()
	m := &logMetrics{
		reg: reg,
		appendSeconds: reg.Histogram("bestring_wal_append_seconds",
			"Wall time of one WAL append (framing, write, and fsync when the policy demands one).",
			obs.DurationBuckets()),
		fsyncSeconds: reg.Histogram("bestring_wal_fsync_seconds",
			"Duration of WAL fsync calls, whatever triggered them (append, batch, seal, interval flush, explicit Sync).",
			obs.DurationBuckets()),
		rotateSeconds: reg.Histogram("bestring_wal_rotation_seconds",
			"Duration of segment rotations (seal fsync + close + new segment create + dir sync).",
			obs.DurationBuckets()),
		appends: reg.Counter("bestring_wal_records_total",
			"Records appended to the WAL (group-commit batches count each record)."),
		appendBytes: reg.Counter("bestring_wal_append_bytes_total",
			"Framed bytes appended to the WAL."),
		fsyncs: reg.Counter("bestring_wal_fsyncs_total",
			"Completed WAL fsync calls."),
		rotations: reg.Counter("bestring_wal_rotations_total",
			"Completed segment rotations."),
	}
	reg.GaugeFunc("bestring_wal_durable_lsn",
		"Highest LSN known to be on stable storage (the replication shipping horizon).",
		func() float64 { return float64(l.DurableLSN()) })
	reg.GaugeFunc("bestring_wal_segments",
		"WAL segments on disk, sealed plus active.",
		func() float64 { return float64(l.Stats().Segments) })
	reg.GaugeFunc("bestring_wal_bytes",
		"Total WAL bytes on disk across segments.",
		func() float64 { return float64(l.Stats().Bytes) })
	return m
}

// EnableMetrics exposes the log's instruments on reg. Call once per
// registry, any time after Open.
func (l *Log) EnableMetrics(reg *obs.Registry) {
	reg.Include(l.metrics.reg)
}

// syncActiveLocked fsyncs the active segment and times the call.
// Callers hold l.mu.
func (l *Log) syncActiveLocked() error {
	t0 := time.Now()
	err := l.f.Sync()
	if err == nil {
		l.metrics.fsyncSeconds.Observe(time.Since(t0).Seconds())
		l.metrics.fsyncs.Inc()
	}
	return err
}
