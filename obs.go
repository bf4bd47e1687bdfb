package bestring

import (
	"context"
	"io"
	"time"

	"bestring/internal/obs"
)

// Observability types, re-exported. A MetricsRegistry renders
// counters, gauges and histograms in the Prometheus text exposition
// format. A DB's instruments always count, from the moment it is
// made, and DB.Stats/StoreStats read them; EnableMetrics exposes them
// on a registry — the query pipeline, the group committer and the
// import tally and, on a durable DB, the WAL, checkpointer and LSN
// horizons — in one call. Traces ride a context.Context through the
// query pipeline and collect per-stage spans. See DESIGN.md section
// 10.
type (
	// MetricsRegistry is a zero-dependency metrics registry with
	// Prometheus text exposition (Handler serves GET /metrics).
	MetricsRegistry = obs.Registry
	// MetricsCounter and MetricsHistogram are the instruments a
	// MetricsRegistry's Counter and Histogram return, for callers that
	// hold them instead of looking them up per event.
	MetricsCounter   = obs.Counter
	MetricsHistogram = obs.Histogram
	// MetricsSample is one labelled value of a gauge-vec callback.
	MetricsSample = obs.Sample
	// Trace collects the spans of one request; attach it with WithTrace
	// and the query pipeline records its stage timings onto it.
	Trace = obs.Trace
	// TraceSpan is one recorded span of a trace.
	TraceSpan = obs.SpanRecord
	// SlowQueryLog writes one JSON line per query at or above a latency
	// threshold. A nil *SlowQueryLog is a valid disabled logger.
	SlowQueryLog = obs.SlowLog
	// SlowQueryRecord is one slow-query log line.
	SlowQueryRecord = obs.SlowQuery
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsDurationBuckets returns the engine's standard latency
// histogram bounds (1µs doubling to ~16s), for callers registering
// their own duration histograms alongside the engine's.
func MetricsDurationBuckets() []float64 { return obs.DurationBuckets() }

// NewSlowQueryLog returns a logger writing JSON lines to w for queries
// at or above threshold; threshold <= 0 or a nil writer disables it
// (returns nil, which is safe to use).
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return obs.NewSlowLog(w, threshold)
}

// NewTrace returns a trace with the given id ("" mints one).
func NewTrace(id string) *Trace { return obs.NewTrace(id) }

// WithTrace attaches a trace to a context; the query pipeline records
// stage spans onto it.
func WithTrace(ctx context.Context, t *Trace) context.Context { return obs.WithTrace(ctx, t) }

// TraceFromContext returns the attached trace, or nil.
func TraceFromContext(ctx context.Context) *Trace { return obs.FromContext(ctx) }

// NewRequestID mints a 16-hex-character request id.
func NewRequestID() string { return obs.NewRequestID() }

// ValidRequestID reports whether s is usable as a propagated request
// id: 1–64 characters of [A-Za-z0-9._-].
func ValidRequestID(s string) bool { return obs.ValidRequestID(s) }
