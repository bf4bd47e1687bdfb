package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bestring"
)

// sceneBody is a small valid image payload for search requests.
var sceneBody = map[string]any{
	"xmax": 6, "ymax": 6,
	"objects": []map[string]any{
		{"label": "A", "box": map[string]int{"x0": 0, "y0": 0, "x1": 2, "y1": 2}},
		{"label": "B", "box": map[string]int{"x0": 3, "y0": 3, "x1": 5, "y1": 5}},
	},
}

// GET /metrics on a durable server must expose the engine end to end:
// query stage histograms, WAL timings, commit counters and the HTTP
// instruments — in one parseable text exposition.
func TestMetricsEndpoint(t *testing.T) {
	s, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{Fsync: bestring.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := bestring.NewMetricsRegistry()
	s.EnableMetrics(reg)
	mux := newServerMux(muxConfig{db: s, metrics: reg})

	rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{"id": "m1", "image": sceneBody})
	if rec.Code != http.StatusCreated {
		t.Fatalf("insert: %d (%s)", rec.Code, rec.Body.String())
	}
	rec = do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"image": sceneBody, "k": 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d (%s)", rec.Code, rec.Body.String())
	}

	rec = do(t, mux, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE bestring_query_stage_seconds histogram",
		`bestring_query_stage_seconds_count{stage="rank"} 1`,
		"bestring_query_total 1",
		"bestring_scorer_cache_bypassed_total 1", // the search above was its key's first sighting
		"bestring_label_dict_labels 2",           // sceneBody's two icon labels
		"# TYPE bestring_wal_fsync_seconds histogram",
		"bestring_commit_mutations_total 1",
		`bestring_store_lsn{kind="visible"} 1`,
		`bestring_http_requests_total{code="201",route="/api/images"} 1`,
		`bestring_http_requests_total{code="200",route="/api/search"} 1`,
		"# TYPE bestring_http_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Exposition hygiene: one TYPE line per family, no duplicate series.
	types := map[string]int{}
	series := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types[strings.Fields(line)[2]]++
		} else if line != "" && !strings.HasPrefix(line, "#") {
			series[strings.Fields(line)[0]]++
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}
	for key, n := range series {
		if n != 1 {
			t.Errorf("series %s appears %d times", key, n)
		}
	}
}

// An in-memory server wired as run wires it — seed first, then
// EnableMetrics — serves one set of counters: /healthz's commit and
// search figures equal the /metrics series that count the same events,
// the seed's commit groups included.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	db, err := seeded(50, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := bestring.NewMetricsRegistry()
	db.EnableMetrics(reg)
	mux := newServerMux(muxConfig{db: db, metrics: reg})
	const searches = 5
	for i := 0; i < searches; i++ {
		if rec := do(t, mux, http.MethodPost, "/api/v1/search",
			map[string]any{"image": sceneBody, "k": 3}); rec.Code != http.StatusOK {
			t.Fatalf("search: %d (%s)", rec.Code, rec.Body.String())
		}
	}

	var health struct {
		Commit struct {
			Groups    uint64 `json:"groups"`
			Mutations uint64 `json:"mutations"`
		} `json:"commit"`
		Search struct {
			Queries uint64 `json:"queries"`
		} `json:"search"`
	}
	decode(t, do(t, mux, http.MethodGet, "/healthz", nil), &health)
	if health.Commit.Groups == 0 || health.Search.Queries != searches {
		t.Fatalf("healthz = %+v, want seed groups and %d queries", health, searches)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(do(t, mux, http.MethodGet, "/metrics", nil).Body.String(), "\n") {
		if key, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[key] = val
		}
	}
	groups := strconv.FormatUint(health.Commit.Groups, 10)
	for key, want := range map[string]string{
		"bestring_commit_groups_total":     groups,
		"bestring_commit_batch_size_count": groups,
		"bestring_commit_mutations_total":  strconv.FormatUint(health.Commit.Mutations, 10),
		"bestring_query_total":             strconv.FormatUint(health.Search.Queries, 10),
	} {
		if samples[key] != want {
			t.Errorf("%s = %q, /healthz says %s", key, samples[key], want)
		}
	}
}

// Every response carries X-Request-Id: minted when the client sent
// none (or junk), echoed verbatim when the client sent a valid one.
func TestRequestIDEcho(t *testing.T) {
	mux := testMux(t)

	rec := do(t, mux, http.MethodGet, "/healthz", nil)
	if id := rec.Header().Get(requestIDHeader); !bestring.ValidRequestID(id) {
		t.Fatalf("minted id %q not valid", id)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(requestIDHeader, "client-id.42")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if got := rr.Header().Get(requestIDHeader); got != "client-id.42" {
		t.Fatalf("valid client id not echoed: %q", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(requestIDHeader, "bad id with spaces\n")
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if got := rr.Header().Get(requestIDHeader); !bestring.ValidRequestID(got) || strings.Contains(got, " ") {
		t.Fatalf("invalid client id not replaced: %q", got)
	}
}

// The slow-query log must record searches at or above the threshold as
// one JSON line each, carrying the trace id and the stage timings.
func TestSlowQueryLog(t *testing.T) {
	db, err := seeded(50, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	mux := newServerMux(muxConfig{
		db:      db,
		metrics: bestring.NewMetricsRegistry(),
		slowLog: bestring.NewSlowQueryLog(&logBuf, time.Nanosecond), // everything is slow
	})

	req := httptest.NewRequest(http.MethodPost, "/api/v1/search", bytes.NewReader(mustJSON(t,
		map[string]any{"image": sceneBody, "k": 3, "dsl": "A left-of B"})))
	req.Header.Set(requestIDHeader, "slow-test-1")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("search: %d (%s)", rr.Code, rr.Body.String())
	}

	line := strings.TrimSpace(logBuf.String())
	if line == "" {
		t.Fatal("no slow-query line written")
	}
	var entry struct {
		TS         string  `json:"ts"`
		TraceID    string  `json:"traceId"`
		Route      string  `json:"route"`
		DurationMS float64 `json:"durationMs"`
		Query      struct {
			K       int    `json:"k"`
			DSL     string `json:"dsl"`
			Objects int    `json:"objects"`
		} `json:"query"`
		Stages struct {
			Evaluated  int   `json:"evaluated"`
			TotalNanos int64 `json:"totalNs"`
		} `json:"stages"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow-query line is not JSON: %v (%q)", err, line)
	}
	if entry.TS == "" || entry.TraceID != "slow-test-1" || entry.Route != "/api/v1/search" {
		t.Fatalf("entry header = %+v", entry)
	}
	if entry.DurationMS <= 0 || entry.Query.K != 3 || entry.Query.DSL != "A left-of B" || entry.Query.Objects != 2 {
		t.Fatalf("entry shape = %+v", entry)
	}
	if entry.Stages.TotalNanos <= 0 {
		t.Fatalf("entry stages = %+v", entry.Stages)
	}
	found := false
	for _, sp := range entry.Spans {
		if sp.Name == "stage.rank" {
			found = true
		}
	}
	if !found {
		t.Fatalf("entry spans missing stage.rank: %+v", entry.Spans)
	}

	// A ranked query's line says whether it bypassed the scorer cache:
	// the first sighting of its key does, the repeat does not.
	for i, want := range []bool{true, false} {
		logBuf.Reset()
		if rec := do(t, mux, http.MethodPost, "/api/v1/search",
			map[string]any{"image": sceneBody, "k": 3}); rec.Code != http.StatusOK {
			t.Fatalf("search: %d", rec.Code)
		}
		if got := strings.Contains(logBuf.String(), `"cache_bypassed":true`); got != want {
			t.Fatalf("run %d: cache_bypassed=%v, want %v: %q", i+1, got, want, logBuf.String())
		}
	}

	// A fast threshold server logs nothing.
	logBuf.Reset()
	quiet := newServerMux(muxConfig{db: db, metrics: bestring.NewMetricsRegistry(),
		slowLog: bestring.NewSlowQueryLog(&logBuf, time.Hour)})
	if rec := do(t, quiet, http.MethodPost, "/api/v1/search",
		map[string]any{"image": sceneBody, "k": 3}); rec.Code != http.StatusOK {
		t.Fatalf("search: %d", rec.Code)
	}
	if logBuf.Len() != 0 {
		t.Fatalf("fast query logged: %q", logBuf.String())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A write posted to the follower with a request id must land on the
// primary — through the 307 redirect — still carrying the same id, so
// both servers log the same trace.
func TestRequestIDPropagatesThroughRedirect(t *testing.T) {
	ps, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{Fsync: bestring.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	primary, err := bestring.NewReplicationPrimary(ps, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	preg := bestring.NewMetricsRegistry()
	ps.EnableMetrics(preg)
	primary.EnableMetrics(preg)
	primarySrv := httptest.NewServer(newServerMux(muxConfig{
		db: ps, primary: primary, metrics: preg}))
	defer primarySrv.Close()

	fstore, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{
		Fsync: bestring.FsyncAlways, Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	follower, err := bestring.NewReplicationFollower(fstore, primarySrv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	freg := bestring.NewMetricsRegistry()
	fstore.EnableMetrics(freg)
	follower.EnableMetrics(freg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go follower.Run(ctx)
	followerSrv := httptest.NewServer(newServerMux(muxConfig{
		db: fstore, follower: follower, primaryURL: primarySrv.URL, metrics: freg}))
	defer followerSrv.Close()

	// POST the write to the FOLLOWER with an explicit request id. The
	// default client follows the 307 (method and headers preserved), so
	// the response comes from the primary — and must echo our id.
	body := mustJSON(t, map[string]any{"id": "via-follower", "image": sceneBody})
	req, err := http.NewRequest(http.MethodPost, followerSrv.URL+"/api/v1/images", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, "xwrite-7f3a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("redirected write: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(requestIDHeader); got != "xwrite-7f3a" {
		t.Fatalf("primary echoed id %q, want the one sent to the follower", got)
	}
	if !ps.Has("via-follower") {
		t.Fatal("write did not land on the primary")
	}

	// Wait for the follower to replay the write, then scrape both roles:
	// each must expose the replication lag family.
	deadline := time.Now().Add(5 * time.Second)
	for fstore.AppliedLSN() < ps.AppliedLSN() {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, srv := range []*httptest.Server{primarySrv, followerSrv} {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data := new(bytes.Buffer)
		if _, err := data.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !strings.Contains(data.String(), "bestring_repl_follower_lag_lsn") {
			t.Fatalf("%s lacks bestring_repl_follower_lag_lsn:\n%s", srv.URL, data.String())
		}
	}
}
