package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Counters must be exact under concurrent writers; run with -race.
func TestCounterConcurrentExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bestring_test_ops_total", "ops")
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// Histograms must not lose observations across stripes, the +Inf
// bucket must equal _count, and cumulative buckets must be monotone.
func TestHistogramConcurrentExactAndMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bestring_test_seconds", "latency", DurationBuckets())
	const workers, perWorker = 16, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// spread observations across the full bucket range,
				// including beyond the last bound (+Inf territory)
				h.Observe(1e-6 * math.Pow(2, float64((seed+i)%30)))
			}
		}(w)
	}
	wg.Wait()

	cum, count, sum := h.snapshot()
	if count != workers*perWorker {
		t.Fatalf("count = %d, want %d", count, workers*perWorker)
	}
	if h.Count() != count {
		t.Fatalf("Count() = %d, want %d", h.Count(), count)
	}
	if sum <= 0 {
		t.Fatalf("sum = %v, want > 0", sum)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket %d (%d) < bucket %d (%d): not monotone", i, cum[i], i-1, cum[i-1])
		}
	}
	if cum[len(cum)-1] > count {
		t.Fatalf("largest finite bucket %d > count %d", cum[len(cum)-1], count)
	}
	// values at %30 hit exponents 25..29 above the last bound (2^24µs)
	if cum[len(cum)-1] == count {
		t.Fatalf("expected some observations above the last bound")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("bestring_test_gauge", "g")
	g.Set(2.5)
	g.Add(-1)
	if v := g.Value(); v != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", v)
	}
}

// A nil trace and a nil slow log are real states (a library query
// without a trace, a server run with -slow-query 0) and must be inert.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.StartSpan("a").End()
	tr.AddSpan("b", time.Now(), time.Second)
	if tr.ID() != "" || tr.Spans() != nil {
		t.Fatal("nil trace must be inert")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("no trace on fresh context")
	}
	var sl *SlowLog
	if sl.Slow(time.Hour) {
		t.Fatal("nil slowlog never slow")
	}
	sl.Record(SlowQuery{})
}

// Include exposes another registry's families live — counts made
// before and after the include both show — and refuses a family name
// the target already holds, leaving the target unchanged.
func TestInclude(t *testing.T) {
	own := NewRegistry()
	c := own.Counter("bestring_x_total", "x")
	h := own.Histogram("bestring_y", "y", SizeBuckets())
	c.Inc()
	served := NewRegistry()
	served.Counter("bestring_http_total", "http").Inc()
	served.Include(own)
	c.Inc()
	h.Observe(3)
	var buf bytes.Buffer
	if err := served.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bestring_x_total 2", "bestring_y_count 1", "bestring_y_sum 3", "bestring_http_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}

	clash := NewRegistry()
	clash.Counter("bestring_z_total", "z")
	clash.Counter("bestring_x_total", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("including a family twice must panic")
			}
		}()
		served.Include(clash)
	}()
	buf.Reset()
	if err := served.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "bestring_z_total") {
		t.Fatal("a refused include must leave the target unchanged")
	}
}

func TestSameSeriesSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bestring_test_total", "t", "route", "search")
	b := r.Counter("bestring_test_total", "t", "route", "search")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("bestring_test_total", "t", "route", "images")
	if a == c {
		t.Fatal("different labels must be distinct series")
	}
}

// checkExposition validates the text format invariants the CI smoke
// also asserts: one # TYPE per family, no duplicate series, every
// sample line is "name{labels} value" with a parseable value, and
// histogram buckets are cumulative with +Inf == _count.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	types := map[string]bool{}
	series := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if types[parts[2]] {
				t.Fatalf("duplicate # TYPE for %s", parts[2])
			}
			types[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("bad sample line: %q", line)
		}
		key, val := line[:idx], line[idx+1:]
		if series[key] {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = true
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
		}
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("bestring_ops_total", "ops", "route", "search").Add(7)
	r.Counter("bestring_ops_total", "ops", "route", "img\"s\\h").Inc()
	r.Gauge("bestring_up", "up").Set(1)
	r.GaugeFunc("bestring_images", "images", func() float64 { return 42 })
	r.CounterFunc("bestring_groups_total", "groups", func() float64 { return 9 })
	r.GaugeVec("bestring_lag", "lag", "follower", func() []Sample {
		return []Sample{{Label: "f2", Value: 3}, {Label: "f1", Value: 1}}
	})
	h := r.Histogram("bestring_lat_seconds", "lat", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99) // above last bound

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	checkExposition(t, text)

	for _, want := range []string{
		`bestring_ops_total{route="search"} 7`,
		`bestring_ops_total{route="img\"s\\h"} 1`,
		"bestring_up 1",
		"bestring_images 42",
		"# TYPE bestring_groups_total counter",
		"bestring_groups_total 9",
		`bestring_lag{follower="f1"} 1`,
		`bestring_lat_seconds_bucket{le="0.001"} 1`,
		`bestring_lat_seconds_bucket{le="0.1"} 2`,
		`bestring_lat_seconds_bucket{le="+Inf"} 3`,
		"bestring_lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// families must come out sorted by name
	posGroups := strings.Index(text, "# TYPE bestring_groups_total")
	posUp := strings.Index(text, "# TYPE bestring_up")
	if posGroups > posUp {
		t.Fatal("families not sorted by name")
	}
}

func TestGaugeVecEmptyStillEmitsFamily(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("bestring_repl_follower_lag_lsn", "lag", "follower", func() []Sample { return nil })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE bestring_repl_follower_lag_lsn gauge") {
		t.Fatalf("empty GaugeVec family must still expose TYPE line:\n%s", buf.String())
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("abc123")
	if tr.ID() != "abc123" {
		t.Fatalf("id = %q", tr.ID())
	}
	ctx := WithTrace(context.Background(), tr)
	got := FromContext(ctx)
	if got != tr {
		t.Fatal("trace must round-trip through context")
	}
	sp := got.StartSpan("stage.index")
	time.Sleep(time.Millisecond)
	sp.End()
	got.AddSpan("stage.rank", time.Now(), 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "stage.index" || spans[0].DurUS < 900 {
		t.Fatalf("bad first span: %+v", spans[0])
	}
	if spans[1].Name != "stage.rank" || spans[1].DurUS != 5000 {
		t.Fatalf("bad second span: %+v", spans[1])
	}
}

func TestNewTraceMintsID(t *testing.T) {
	a, b := NewTrace(""), NewTrace("")
	if a.ID() == "" || a.ID() == b.ID() {
		t.Fatalf("minted ids must be non-empty and distinct: %q %q", a.ID(), b.ID())
	}
	if !ValidRequestID(a.ID()) {
		t.Fatalf("minted id %q must be valid", a.ID())
	}
}

func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc-DEF_123.x":         true,
		"":                      false,
		"has space":             false,
		"inj\nected":            false,
		strings.Repeat("a", 64): true,
		strings.Repeat("a", 65): false,
	} {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestSlowLogThresholdAndShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	if l.Slow(9 * time.Millisecond) {
		t.Fatal("below threshold must not be slow")
	}
	if !l.Slow(10 * time.Millisecond) {
		t.Fatal("at threshold must be slow")
	}
	l.Record(SlowQuery{
		TraceID:    "deadbeef",
		Route:      "/api/v1/search",
		DurationMS: 12.5,
		Query:      map[string]any{"dsl": "A left-of B", "k": 10},
		Stages:     map[string]any{"indexed": 100, "evaluated": 7},
		Spans:      []SpanRecord{{Name: "query", StartUS: 0, DurUS: 12500}},
	})
	if l.Logged() != 1 {
		t.Fatalf("logged = %d, want 1", l.Logged())
	}
	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, buf.String())
	}
	for _, k := range []string{"ts", "traceId", "route", "durationMs", "query", "stages", "spans"} {
		if _, ok := entry[k]; !ok {
			t.Fatalf("slow log entry missing %q: %s", k, buf.String())
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, entry["ts"].(string)); err != nil {
		t.Fatalf("ts not RFC3339Nano: %v", err)
	}
	if NewSlowLog(&buf, 0) != nil {
		t.Fatal("threshold 0 must disable the log")
	}
}

func TestSlowLogConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, time.Nanosecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Record(SlowQuery{Route: "/r", DurationMS: 1})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	db := DurationBuckets()
	if db[0] != 1e-6 || len(db) != 25 {
		t.Fatalf("duration buckets: first %v, len %d", db[0], len(db))
	}
}

// TestHistogramObserveWindow stops a writer inside Observe — its sum
// added, its total and bucket not yet — and asserts what a reader sees
// there: no observation counted whose value the sum lacks, and no
// bucket ahead of the count (the +Inf bucket). Adding the total before
// the sum, or the bucket before the total, fails it.
func TestHistogramObserveWindow(t *testing.T) {
	h := newHistogram(DurationBuckets())
	h.Observe(0.25)
	inside, release := make(chan struct{}), make(chan struct{})
	h.observeHook = func() {
		close(inside)
		<-release
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Observe(0.5)
	}()
	<-inside
	cum, count, sum := h.snapshot()
	if count != 1 || sum != 0.75 {
		t.Errorf("reader inside Observe: count %d, sum %v; want the finished observation counted and both values summed (1, 0.75)", count, sum)
	}
	if top := cum[len(cum)-1]; top > count {
		t.Errorf("reader inside Observe: finite buckets hold %d observations, the count %d", top, count)
	}
	if c, s := h.Count(), h.Sum(); c != 1 || s != 0.75 {
		t.Errorf("Count, Sum inside Observe = %d, %v; want 1, 0.75", c, s)
	}
	close(release)
	<-done
	if cum, count, sum := h.snapshot(); count != 2 || sum != 0.75 || cum[len(cum)-1] != 2 {
		t.Fatalf("after Observe: buckets %v, count %d, sum %v; want 2 observations summing to 0.75", cum, count, sum)
	}
}
