// Package obs is bestring's zero-dependency observability layer: a
// metrics registry with Prometheus text exposition, request-scoped
// trace spans carried on context.Context, and a structured slow-query
// log.
//
// Design rules (see DESIGN.md §10):
//
//   - Instruments are always on. Each engine component builds its
//     instruments on a registry of its own when it is constructed and
//     counts from then on; exposing them is a separate step that
//     Includes that registry's families in a served one. So there is
//     no "metrics enabled?" branch anywhere, and a component's own
//     stats (DB.Stats, StoreStats) read the very counters /metrics
//     renders: every event is counted once.
//   - Every instrument is safe for concurrent use. Readers that need
//     two counters to agree (mutations >= groups) rely on ordering,
//     not a lock: the writer bumps the larger side first and the
//     reader loads the smaller side first.
//   - Counters and gauges are single atomics. Histograms are
//     lock-striped: each stripe owns an independent set of atomic
//     bucket counters plus a CAS-updated float sum, and a scrape sums
//     across stripes. Writers never share a cache line with readers
//     for longer than one atomic op, and the package is clean under
//     the race detector.
//   - Metric names follow prometheus conventions: `bestring_` prefix,
//     `_total` for counters, `_seconds`/`_bytes` base units. Label
//     cardinality must be bounded by code, never by request content
//     (routes yes, image ids no).
package obs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds named metric families and renders them in
// Prometheus text exposition format. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted lazily at exposition time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: a help string, a kind, and one series per
// distinct label set.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*seriesEntry

	// Callback families (GaugeFunc / CounterFunc / GaugeVec) are
	// evaluated at scrape time so one snapshot call can feed several
	// series coherently.
	vecLabel string
	vecFn    func() []Sample
}

type seriesEntry struct {
	labels string // rendered `{k="v",...}` suffix, possibly ""
	c      *Counter
	g      *Gauge
	gfn    func() float64
	cfn    func() float64
	h      *Histogram
}

// Sample is one dynamically-labelled gauge value, as produced by a
// GaugeVec callback.
type Sample struct {
	Label string
	Value float64
}

func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	if err := checkName(name); err != nil {
		panic("obs: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*seriesEntry)}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// Counter returns the counter for name and the given label pairs,
// registering it on first use. Labels are "key, value" pairs; the same
// name+labels always returns the same instrument.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.getFamily(name, help, kindCounter)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[ls]; ok {
		return s.c
	}
	c := &Counter{}
	f.series[ls] = &seriesEntry{labels: ls, c: c}
	return c
}

// CounterFunc registers a counter whose value is produced by fn at
// scrape time. Use it to expose an existing cumulative count without
// double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	f := r.getFamily(name, help, kindCounter)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[ls]; ok {
		panic(fmt.Sprintf("obs: duplicate CounterFunc %s%s", name, ls))
	}
	f.series[ls] = &seriesEntry{labels: ls, cfn: fn}
}

// Gauge returns a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.getFamily(name, help, kindGauge)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[ls]; ok {
		return s.g
	}
	g := &Gauge{}
	f.series[ls] = &seriesEntry{labels: ls, g: g}
	return g
}

// GaugeFunc registers a gauge whose value is produced by fn at scrape
// time. fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	f := r.getFamily(name, help, kindGauge)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[ls]; ok {
		panic(fmt.Sprintf("obs: duplicate GaugeFunc %s%s", name, ls))
	}
	f.series[ls] = &seriesEntry{labels: ls, gfn: fn}
}

// GaugeVec registers a gauge family whose children carry one dynamic
// label (labelKey) and are produced together by fn at scrape time —
// one callback, one coherent snapshot (e.g. per-follower lag). The
// family is emitted even when fn returns no samples, so dashboards and
// smoke tests can assert its presence before any child exists.
func (r *Registry) GaugeVec(name, help, labelKey string, fn func() []Sample) {
	if err := checkLabelName(labelKey); err != nil {
		panic("obs: " + err.Error())
	}
	f := r.getFamily(name, help, kindGauge)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.vecFn != nil || len(f.series) > 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q conflicts with existing series", name))
	}
	f.vecLabel = labelKey
	f.vecFn = fn
}

// Histogram returns the histogram for name+labels, registering it on
// first use with the given upper bucket bounds (ascending; +Inf is
// implicit). Re-registering with different bounds panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	f := r.getFamily(name, help, kindHistogram)
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[ls]; ok {
		if len(s.h.bounds) != len(buckets) {
			panic(fmt.Sprintf("obs: histogram %s%s re-registered with different buckets", name, ls))
		}
		return s.h
	}
	h := newHistogram(buckets)
	f.series[ls] = &seriesEntry{labels: ls, h: h}
	return h
}

// Include makes every family registered on src so far visible on r:
// a scrape of r renders them as they stand, so instruments src owns
// count whether or not any registry includes them. A family name r
// already holds panics, as registering it twice would; nothing is
// included then.
func (r *Registry) Include(src *Registry) {
	src.mu.Lock()
	fams := make([]*family, 0, len(src.names))
	for _, n := range src.names {
		fams = append(fams, src.families[n])
	}
	src.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fams {
		if _, ok := r.families[f.name]; ok {
			panic(fmt.Sprintf("obs: metric %q included twice", f.name))
		}
	}
	for _, f := range fams {
		r.families[f.name] = f
		r.names = append(r.names, f.name)
	}
}

// --- Counter ---

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Add adds n (n must be non-negative; negative deltas are ignored).
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	return c.v.Load()
}

// --- Gauge ---

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ---

// histStripes is the number of independent shards a histogram spreads
// concurrent Observe calls across. Must be a power of two.
const histStripes = 8

type histStripe struct {
	counts  []atomic.Uint64 // one per bound, +Inf tracked via total
	total   atomic.Uint64
	sumBits atomic.Uint64
	_       [32]byte // keep stripes off each other's cache lines
}

// Histogram is a fixed-bucket, lock-striped histogram. Observe picks a
// random stripe (math/rand/v2 is cheap and per-P), bumps one atomic
// bucket counter, and CAS-adds the float sum; a scrape sums across
// stripes, so cumulative bucket counts are monotone by construction.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	stripes [histStripes]histStripe
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	h := &Histogram{bounds: bounds}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Uint64, len(bounds))
	}
	return h
}

// Observe records one value. The sum is added before the count, so a
// reader that loads Count and then Sum never sees an observation in
// the count whose value is missing from the sum: for non-negative
// values Sum >= the sum of the first Count observations.
func (h *Histogram) Observe(v float64) {
	s := &h.stripes[rand.Uint32()&(histStripes-1)]
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.bounds) {
		s.counts[i].Add(1)
	}
	for {
		old := s.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, nb) {
			break
		}
	}
	s.total.Add(1)
}

// snapshot returns cumulative per-bound counts (excluding +Inf), the
// total observation count, and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.bounds))
	for si := range h.stripes {
		s := &h.stripes[si]
		for bi := range s.counts {
			cum[bi] += s.counts[bi].Load()
		}
		count += s.total.Load()
		sum += math.Float64frombits(s.sumBits.Load())
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return cum, count, sum
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.stripes {
		n += h.stripes[i].total.Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	var sum float64
	for i := range h.stripes {
		sum += math.Float64frombits(h.stripes[i].sumBits.Load())
	}
	return sum
}

// ExpBuckets returns n strictly ascending bounds: start, start*factor,
// start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>=1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets is the standard latency layout used across the
// engine: powers of two from 1µs to ~16.8s (25 bounds). Log-spaced so
// one layout covers in-memory stage times and fsync-bound commits.
func DurationBuckets() []float64 {
	return ExpBuckets(1e-6, 2, 25)
}

// SizeBuckets is the standard count/size layout: powers of two from
// 1 to 2048 (12 bounds); used for batch sizes and candidate counts.
func SizeBuckets() []float64 {
	return ExpBuckets(1, 2, 12)
}

// --- label and name plumbing ---

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", name)
		}
	}
	return nil
}

// renderLabels turns ("k1", "v1", "k2", "v2") into `{k1="v1",k2="v2"}`
// with keys sorted, so the same set always maps to the same series.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: labels must be key, value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if err := checkLabelName(pairs[i]); err != nil {
			panic("obs: " + err.Error())
		}
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
