package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bestring"
)

// maxBodyBytes bounds JSON request bodies so a misbehaving client cannot
// exhaust memory before the decoder sees the payload.
const maxBodyBytes = 1 << 20

// statusClientClosedRequest reports a request whose client went away
// before the response was computed (nginx's 499 convention).
const statusClientClosedRequest = 499

// maxBatchQueries bounds one POST /api/v1/search batch.
const maxBatchQueries = 64

// minLSNWait bounds how long a read carrying ?min_lsn waits for the
// store to publish that LSN before giving up with a 404.
const minLSNWait = 2 * time.Second

// requestIDHeader propagates one request's identity across roles: a
// client (or proxy) may set it, the server echoes it on the response,
// and a follower's 307 write redirect carries it to the primary, so
// one write's trace id appears in both servers' logs.
const requestIDHeader = "X-Request-Id"

// muxConfig bundles everything the server mux serves: the database
// (volatile or durable), its replication role, and the observability
// surface (metrics registry, required, and slow-query log, optional).
type muxConfig struct {
	db          *bestring.DB
	parallelism int
	primary     *bestring.ReplicationPrimary
	follower    *bestring.ReplicationFollower
	primaryURL  string
	metrics     *bestring.MetricsRegistry
	slowLog     *bestring.SlowQueryLog
}

// newMux wires the REST routes onto a database with no replication role
// and a fresh registry: the image resource, the composable query
// endpoint POST /api/v1/search — the only read door besides fetching an
// entry — and the streaming import, all under /api/v1.
func newMux(db *bestring.DB) http.Handler {
	return newServerMux(muxConfig{db: db, metrics: bestring.NewMetricsRegistry()})
}

// newServerMux builds the complete handler: routes, the request-id /
// trace middleware, per-route HTTP metrics and the GET /metrics
// exposition endpoint.
func newServerMux(cfg muxConfig) http.Handler {
	api := &api{db: cfg.db, parallelism: cfg.parallelism,
		primary: cfg.primary, follower: cfg.follower,
		primaryURL: strings.TrimRight(cfg.primaryURL, "/"),
		metrics:    cfg.metrics, http: &httpInstruments{reg: cfg.metrics}, slow: cfg.slowLog}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", api.health)
	mux.HandleFunc("GET /api/v1/images", api.listImages)
	mux.HandleFunc("POST /api/v1/images", api.insertImage)
	mux.HandleFunc("GET /api/v1/images/{id}", api.getImage)
	mux.HandleFunc("DELETE /api/v1/images/{id}", api.deleteImage)
	mux.HandleFunc("POST /api/v1/search", api.searchV1)
	mux.HandleFunc("POST /api/v1/import", api.importScenes)
	mux.Handle("GET /metrics", cfg.metrics.Handler())
	if cfg.primary != nil {
		cfg.primary.Register(mux)
	}
	return api.instrument(mux)
}

type api struct {
	db *bestring.DB
	// parallelism is the default scoring-worker bound for requests that
	// set none (0 means GOMAXPROCS).
	parallelism int

	// Replication role: at most one of primary/follower is set. A
	// follower also carries the primary's base URL so refused writes can
	// redirect there.
	primary    *bestring.ReplicationPrimary
	follower   *bestring.ReplicationFollower
	primaryURL string

	// Observability surface. A nil slow log never records.
	metrics *bestring.MetricsRegistry
	http    *httpInstruments
	slow    *bestring.SlowQueryLog
}

// statusWriter records the response status for the HTTP metrics. It
// forwards Flush so the replication stream (which requires an
// http.Flusher) works through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabel maps a request path onto the server's route patterns, so
// the HTTP metrics keep a small fixed label set whatever paths clients
// probe (unmatched paths, the retired /api/* set included, all share
// "other"). The label values carry no version segment: they predate
// /api/v1 and dashboards and the load harness match on them.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", bestring.ReplStreamPath, bestring.ReplAckPath:
		return path
	}
	p, ok := strings.CutPrefix(path, "/api/v1")
	switch {
	case !ok:
		return "other"
	case p == "/images":
		return "/api/images"
	case strings.HasPrefix(p, "/images/"):
		return "/api/images/{id}"
	case p == "/search":
		return "/api/search"
	case p == "/import":
		return "/api/import"
	}
	return "other"
}

// httpRoutes is every value routeLabel returns.
var httpRoutes = [...]string{
	"/healthz", "/metrics", bestring.ReplStreamPath, bestring.ReplAckPath,
	"/api/images", "/api/images/{id}", "/api/search", "/api/import", "other",
}

// httpCodes are the status codes the server answers with: its handlers'
// and the mux's 405. A response with any other code is counted through
// a registry lookup instead of a held instrument.
var httpCodes = [...]int{200, 201, 307, 400, 403, 404, 405, 409, 413, statusClientClosedRequest, 500, 503, 504}

// httpInstruments holds the HTTP request counter of every route × code
// pair and the latency histogram of every route. Each is resolved
// through the registry on its first request and held from then on, so
// a request costs two atomic loads instead of two registry lookups
// (which take two mutexes, render labels and allocate). Resolving on
// first use rather than up front keeps /metrics showing only the pairs
// that occurred. Two requests racing to fill a slot store the same
// instrument: the registry returns one per name and label set.
type httpInstruments struct {
	reg      *bestring.MetricsRegistry
	requests [len(httpRoutes)][len(httpCodes)]atomic.Pointer[bestring.MetricsCounter]
	seconds  [len(httpRoutes)]atomic.Pointer[bestring.MetricsHistogram]
}

// observe counts one request to path answered with code after d.
func (m *httpInstruments) observe(path string, code int, d time.Duration) {
	route := slices.Index(httpRoutes[:], routeLabel(path))
	m.counter(route, code).Inc()
	h := m.seconds[route].Load()
	if h == nil {
		h = m.reg.Histogram("bestring_http_request_seconds",
			"HTTP request wall time by route pattern.",
			bestring.MetricsDurationBuckets(), "route", httpRoutes[route])
		m.seconds[route].Store(h)
	}
	h.Observe(d.Seconds())
}

// counter returns the request counter of one route and code.
func (m *httpInstruments) counter(route, code int) *bestring.MetricsCounter {
	lookup := func() *bestring.MetricsCounter {
		return m.reg.Counter("bestring_http_requests_total",
			"HTTP requests by route pattern and status code.",
			"route", httpRoutes[route], "code", strconv.Itoa(code))
	}
	i := slices.Index(httpCodes[:], code)
	if i < 0 {
		return lookup()
	}
	c := m.requests[route][i].Load()
	if c == nil {
		c = lookup()
		m.requests[route][i].Store(c)
	}
	return c
}

// instrument is the outermost middleware: it assigns (or validates and
// propagates) the request id, attaches a trace to the context so the
// query pipeline records stage spans, echoes the id on the response,
// and counts and times the request per route.
func (a *api) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(requestIDHeader)
		if !bestring.ValidRequestID(rid) {
			rid = bestring.NewRequestID()
		}
		w.Header().Set(requestIDHeader, rid)
		r = r.WithContext(bestring.WithTrace(r.Context(), bestring.NewTrace(rid)))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		a.http.observe(r.URL.Path, code, time.Since(start))
	})
}

// logSlow records one query on the slow-query log when its duration
// meets the threshold. query is the compiled shape (no image payloads),
// stages the pipeline's counters/timings when available.
func (a *api) logSlow(r *http.Request, route string, start time.Time, query, stages any, err error) {
	d := time.Since(start)
	if !a.slow.Slow(d) {
		return
	}
	rec := bestring.SlowQueryRecord{
		Route:      route,
		DurationMS: float64(d) / float64(time.Millisecond),
		Query:      query,
		Stages:     stages,
	}
	if tr := bestring.TraceFromContext(r.Context()); tr != nil {
		rec.TraceID = tr.ID()
		rec.Spans = tr.Spans()
	}
	if err != nil {
		rec.Err = err.Error()
	}
	a.slow.Record(rec)
}

// writeJSON emits a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after WriteHeader are unrecoverable; ignore.
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits a JSON error envelope.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody reads a JSON body under the maxBodyBytes limit and reports
// the HTTP status a decode failure deserves (413 for an oversized body,
// 400 otherwise). strict rejects unknown fields — used by the search
// route so a client sending the retired "method" instead of "scorer"
// gets a 400 instead of silently ranking with the default scorer; the
// insert route keeps the lenient decoding it always had.
func decodeBody(w http.ResponseWriter, r *http.Request, strict bool, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode body: %w", err)
	}
	return 0, nil
}

// queryStatus classifies a query-pipeline error: cancellations are the
// client's doing, deadlines are timeouts, anything else the pipeline
// rejects is a bad request — never a 500.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// mutationStatus classifies a write-path error by its sentinel;
// fallback is the status of an error none matches — 400 where the
// request carries a payload that can be invalid (insert), 500 where it
// carries none (delete).
func mutationStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, bestring.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, bestring.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, bestring.ErrRecordTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, bestring.ErrStoreClosed):
		return http.StatusServiceUnavailable
	}
	return fallback
}

func (a *api) health(w http.ResponseWriter, _ *http.Request) {
	// Stats reads one published version, so epoch and entry count are
	// mutually consistent; alongside the WAL LSNs below they let an
	// operator watch writer progress versus published read state.
	stats := a.db.Stats()
	body := map[string]any{
		"ok": true, "images": stats.Images, "shards": stats.Shards,
		"epoch":      stats.Epoch,
		"entries":    stats.Images,
		"goroutines": runtime.NumGoroutine(),
		// Distinct icon labels in the label dictionary the rank kernel's
		// integer ids come from; grows on writes only.
		"labelDict": stats.Labels,
		// Cumulative filter-and-refine counters: pruned/evaluated is the
		// fraction of exact LCS work the signature bounds saved.
		"search": stats.Search,
	}
	body["role"] = a.role()
	// Group-commit counters: mutations/groups is the mean coalescing
	// factor — how many concurrent writers shared each fsync. The
	// import tally: chunks/images/bytes committed, chunks an interrupted
	// run's resume skipped, and imports running right now.
	ss := a.db.StoreStats()
	body["commit"] = ss.Commit
	body["import"] = ss.Import
	// A durable store additionally reports WAL/checkpoint state, the
	// signal an operator watches during recovery.
	if a.db.Durable() {
		body["durable"] = true
		body["wal"] = ss.WAL
		body["checkpoint"] = map[string]any{
			"lsn":       ss.CheckpointLSN,
			"lastLSN":   ss.LastLSN,
			"completed": ss.Checkpoints,
			"lastError": ss.CheckpointErr,
		}
		// The replication ledger: what is durable (shippable), applied,
		// visible to reads, and how far back the retained WAL reaches. On
		// a follower appliedLSN is the catch-up position.
		body["lsn"] = map[string]any{
			"durable":  ss.WAL.DurableLSN,
			"applied":  ss.AppliedLSN,
			"visible":  ss.VisibleLSN,
			"oldest":   ss.WAL.OldestLSN,
			"segments": ss.WAL.Segments,
		}
		body["storeId"] = ss.StoreID
	}
	switch {
	case a.primary != nil:
		body["replication"] = map[string]any{"followers": a.primary.Followers()}
	case a.follower != nil:
		body["replication"] = a.follower.Status()
	}
	writeJSON(w, http.StatusOK, body)
}

// role classifies the server for /healthz: a replication primary, a
// follower, or a standalone instance (durable or in-memory).
func (a *api) role() string {
	switch {
	case a.primary != nil:
		return "primary"
	case a.follower != nil:
		return "follower"
	default:
		return "standalone"
	}
}

// redirectedWrite handles a mutation refused because this server is a
// read-only follower: a 307 to the primary preserves the method and
// body, so a client that follows redirects lands the write where it
// belongs. Reports whether the response was written.
func (a *api) redirectedWrite(w http.ResponseWriter, r *http.Request, err error) bool {
	if !errors.Is(err, bestring.ErrReadOnlyReplica) {
		return false
	}
	if a.primaryURL == "" {
		writeErr(w, http.StatusForbidden, err)
		return true
	}
	// Log the redirect with the request id: the primary echoes the same
	// id, so one write can be traced across both servers' logs.
	if tr := bestring.TraceFromContext(r.Context()); tr != nil {
		log.Printf("follower: redirecting %s %s to primary (request %s)", r.Method, r.URL.Path, tr.ID())
	}
	http.Redirect(w, r, a.primaryURL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// writeLSNs annotates a successful mutation response with the store's
// post-write horizons: "lsn" is the read-your-writes token (pass it as
// min_lsn to any replica of this store) and "durable" the fsynced
// horizon — under -fsync always they match; under interval/never
// durable may trail the write briefly.
func (a *api) writeLSNs(body map[string]any) map[string]any {
	if a.db.Durable() {
		body["lsn"] = a.db.VisibleLSN()
		body["durable"] = a.db.DurableLSN()
	}
	return body
}

func (a *api) listImages(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ids": a.db.IDs()})
}

// insertRequest is the POST /api/v1/images payload.
type insertRequest struct {
	ID    string         `json:"id"`
	Name  string         `json:"name"`
	Image bestring.Image `json:"image"`
}

func (a *api) insertImage(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if status, err := decodeBody(w, r, false, &req); err != nil {
		writeErr(w, status, err)
		return
	}
	if err := a.db.Insert(req.ID, req.Name, req.Image); err != nil {
		if a.redirectedWrite(w, r, err) {
			return
		}
		writeErr(w, mutationStatus(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, a.writeLSNs(map[string]any{"id": req.ID}))
}

func (a *api) getImage(w http.ResponseWriter, r *http.Request) {
	e, ok := a.db.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, bestring.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

func (a *api) deleteImage(w http.ResponseWriter, r *http.Request) {
	if err := a.db.Delete(r.PathValue("id")); err != nil {
		if a.redirectedWrite(w, r, err) {
			return
		}
		writeErr(w, mutationStatus(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, a.writeLSNs(map[string]any{"deleted": true}))
}

// queryRequest is the POST /api/v1/search payload: any combination of a
// query image (ranked similarity), a spatial-predicate expression and a
// region, plus pagination and engine knobs — or a batch of them under
// "queries", evaluated concurrently.
type queryRequest struct {
	Image       *bestring.Image `json:"image,omitempty"`
	DSL         string          `json:"dsl,omitempty"`
	Region      *bestring.Rect  `json:"region,omitempty"`
	RegionLabel string          `json:"regionLabel,omitempty"`
	// Scorer is one of the scorer names ("" means the default BE-LCS).
	Scorer string `json:"scorer,omitempty"`
	K      int    `json:"k,omitempty"`
	Offset int    `json:"offset,omitempty"`
	// Cursor resumes after a previous response's nextCursor.
	Cursor   string  `json:"cursor,omitempty"`
	MinScore float64 `json:"minScore,omitempty"`
	// WhereMin overrides the satisfied fraction the DSL filter requires.
	WhereMin       float64 `json:"whereMin,omitempty"`
	Parallelism    int     `json:"parallelism,omitempty"`
	LabelPrefilter bool    `json:"labelPrefilter,omitempty"`

	// Consistent pins the request (every query of a batch) to one
	// snapshot epoch: all queries read the exact same immutable version
	// of the store, however many writers run concurrently, and the
	// response reports the pinned epoch. Queries carrying a cursor keep
	// the (older) epoch the cursor pinned instead — continuing their
	// exact page walk rather than jumping to the fresh snapshot.
	Consistent bool `json:"consistent,omitempty"`

	// Debug adds the per-stage candidate counts (narrowed, bounded,
	// evaluated, pruned) and the executed plan (stage order, the
	// label-narrowing estimate, scorer-cache hits) to the response — on a
	// batch, to every sub-response. Results are unaffected.
	Debug bool `json:"debug,omitempty"`

	Queries []queryRequest `json:"queries,omitempty"`
}

// buildQuery compiles one request into a pipeline query.
// defaultParallelism fills in the scoring-worker bound for requests that
// set none.
func buildQuery(req queryRequest, defaultParallelism int) (*bestring.Query, []bestring.QueryOption, error) {
	if req.RegionLabel != "" && req.Region == nil {
		return nil, nil, fmt.Errorf("regionLabel requires region")
	}
	var q *bestring.Query
	if req.Image != nil {
		q = bestring.NewQuery(*req.Image)
	} else {
		q = bestring.NewMatchQuery()
	}
	parallelism := req.Parallelism
	if parallelism == 0 {
		parallelism = defaultParallelism
	}
	opts := []bestring.QueryOption{
		bestring.WithK(req.K),
		bestring.WithOffset(req.Offset),
		bestring.WithCursor(req.Cursor),
		bestring.WithScorer(req.Scorer),
		bestring.WithMinScore(req.MinScore),
		bestring.WithParallelism(parallelism),
		bestring.WithLabelPrefilter(req.LabelPrefilter),
	}
	if req.DSL != "" {
		opts = append(opts, bestring.Where(req.DSL))
	}
	if req.Region != nil {
		opts = append(opts, bestring.InRegionLabel(*req.Region, req.RegionLabel))
	}
	if req.WhereMin != 0 {
		opts = append(opts, bestring.WithWhereMin(req.WhereMin))
	}
	return q, opts, nil
}

// queryShape reduces one v1 request to the fields worth logging on a
// slow query: what kind of query ran, never the image payload itself.
func queryShape(req queryRequest) map[string]any {
	shape := map[string]any{"k": req.K}
	if req.Image != nil {
		shape["objects"] = len(req.Image.Objects)
	}
	if req.DSL != "" {
		shape["dsl"] = req.DSL
	}
	if req.Region != nil {
		shape["region"] = true
	}
	if req.RegionLabel != "" {
		shape["regionLabel"] = req.RegionLabel
	}
	if req.Scorer != "" {
		shape["scorer"] = req.Scorer
	}
	if req.Offset != 0 {
		shape["offset"] = req.Offset
	}
	if req.Cursor != "" {
		shape["cursor"] = true
	}
	if req.Consistent {
		shape["consistent"] = true
	}
	return shape
}

// queryResponse is one evaluated query of a batch (or the whole response
// for a single query): a page on success, an error envelope otherwise.
type queryResponse struct {
	Hits       []bestring.QueryHit `json:"hits"`
	Total      int                 `json:"total"`
	NextCursor string              `json:"nextCursor,omitempty"`
	// Epoch identifies the immutable store version the query read.
	Epoch uint64 `json:"epoch,omitempty"`
	// Stages carries the per-stage candidate counts when the request set
	// "debug": true.
	Stages *bestring.QueryStages `json:"stages,omitempty"`
	// Plan carries the executed stage order, the label-narrowing
	// estimate and scorer-cache hit/miss counts when the request set
	// "debug": true.
	Plan   *bestring.QueryPlan `json:"plan,omitempty"`
	Error  string              `json:"error,omitempty"`
	Status int                 `json:"status,omitempty"` // set only on per-query batch errors
}

// waitMinLSN implements read-your-writes routing across replication: a
// request carrying ?min_lsn=N (the "lsn" a primary write response
// returned) waits — bounded by minLSNWait — until this store has
// published LSN N, and 404s if it cannot, so the client retries here or
// falls back to the primary rather than silently reading stale state.
// An in-memory server logs nothing, so its visible LSN stays 0: min_lsn=0
// proceeds and any higher LSN 404s at once. Reports whether the request
// may proceed.
func (a *api) waitMinLSN(w http.ResponseWriter, r *http.Request) bool {
	s := r.URL.Query().Get("min_lsn")
	if s == "" {
		return true
	}
	lsn, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min_lsn %q", s))
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), minLSNWait)
	defer cancel()
	if err := a.db.WaitVisible(ctx, lsn); err != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf(
			"lsn %d not visible here (at %d)", lsn, a.db.VisibleLSN()))
		return false
	}
	return true
}

func (a *api) searchV1(w http.ResponseWriter, r *http.Request) {
	if !a.waitMinLSN(w, r) {
		return
	}
	var req queryRequest
	if status, err := decodeBody(w, r, true, &req); err != nil {
		writeErr(w, status, err)
		return
	}

	// With "consistent" the whole request pins one snapshot epoch up
	// front: every query (of a batch) reads the same immutable version,
	// so a concurrent writer can never make two queries of one request
	// disagree about the store's contents. A query carrying a cursor is
	// the exception — the cursor already pins the epoch its first page
	// ran on, and that older pin must win (routing it onto the fresh
	// snapshot would break the no-skip/no-duplicate pagination
	// guarantee), so it goes through the engine's cursor resolution.
	var snap *bestring.Snapshot
	if req.Consistent {
		snap = a.db.Snapshot()
	}
	runQuery := func(ctx context.Context, sub queryRequest, q *bestring.Query, opts []bestring.QueryOption) (*bestring.QueryPage, error) {
		if snap != nil && sub.Cursor == "" {
			return snap.Query(ctx, q, opts...)
		}
		return a.db.Query(ctx, q, opts...)
	}

	if len(req.Queries) > 0 {
		if req.Image != nil || req.DSL != "" || req.Region != nil {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("queries cannot be combined with a top-level image, dsl or region"))
			return
		}
		if len(req.Queries) > maxBatchQueries {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries))
			return
		}
		for _, sub := range req.Queries {
			if len(sub.Queries) > 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("queries cannot nest"))
				return
			}
			if sub.Consistent {
				writeErr(w, http.StatusBadRequest,
					fmt.Errorf("consistent applies to the whole batch, not a single query"))
				return
			}
		}
		start := time.Now()
		out := make([]queryResponse, len(req.Queries))
		var wg sync.WaitGroup
		for i, sub := range req.Queries {
			wg.Add(1)
			go func(i int, sub queryRequest) {
				defer wg.Done()
				q, opts, err := buildQuery(sub, a.parallelism)
				if err != nil {
					out[i] = queryResponse{Hits: []bestring.QueryHit{}, Error: err.Error(), Status: http.StatusBadRequest}
					return
				}
				page, err := runQuery(r.Context(), sub, q, opts)
				if err != nil {
					out[i] = queryResponse{Hits: []bestring.QueryHit{}, Error: err.Error(), Status: queryStatus(err)}
					return
				}
				out[i] = queryResponse{Hits: page.Hits, Total: page.Total, NextCursor: page.NextCursor, Epoch: page.Epoch}
				if req.Debug || sub.Debug {
					out[i].Stages = page.Stages
					out[i].Plan = page.Plan
				}
			}(i, sub)
		}
		wg.Wait()
		a.logSlow(r, "/api/v1/search", start,
			map[string]any{"batch": len(req.Queries), "consistent": req.Consistent}, nil, nil)
		resp := map[string]any{"results": out}
		if snap != nil {
			resp["epoch"] = snap.Epoch()
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	q, opts, err := buildQuery(req, a.parallelism)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	page, err := runQuery(r.Context(), req, q, opts)
	var stages any
	shape := queryShape(req)
	if page != nil && page.Stages != nil {
		stages = page.Stages
	}
	if page != nil && page.Plan != nil && page.Plan.CacheBypassed {
		// A slow first-sighting query ran every refine evaluation itself;
		// the same query repeated would be served from the scorer cache.
		shape["cache_bypassed"] = true
	}
	a.logSlow(r, "/api/v1/search", start, shape, stages, err)
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	resp := queryResponse{
		Hits: page.Hits, Total: page.Total, NextCursor: page.NextCursor, Epoch: page.Epoch,
	}
	if req.Debug {
		resp.Stages = page.Stages
		resp.Plan = page.Plan
	}
	writeJSON(w, http.StatusOK, resp)
}

// importScenes is POST /api/v1/import: a streaming bulk ingest. The body
// is a scene stream — NDJSON by default, the CSV dialect with
// ?format=csv — consumed incrementally (no maxBodyBytes cap: chunking
// bounds memory, not the request size), converted in a worker pool and
// committed in chunks (one WAL record each on a durable server), so one
// request loads a corpus far larger than memory. Query knobs: chunk
// (scenes per chunk), chunk_bytes, parallelism, no_resume=1. Interrupted
// imports on a durable server resume: re-POST the same stream and
// already-durable chunks are skipped (see DESIGN.md section 12).
func (a *api) importScenes(w http.ResponseWriter, r *http.Request) {
	var opts bestring.ImportOptions
	q := r.URL.Query()
	intParam := func(name string) (int, error) {
		s := q.Get(name)
		if s == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad %s %q", name, s)
		}
		return n, nil
	}
	var err error
	if opts.ChunkScenes, err = intParam("chunk"); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var cb int
	if cb, err = intParam("chunk_bytes"); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts.ChunkBytes = int64(cb)
	if opts.Parallelism, err = intParam("parallelism"); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts.NoResume = q.Get("no_resume") == "1" || q.Get("no_resume") == "true"
	var src bestring.SceneReader
	switch format := q.Get("format"); format {
	case "", "ndjson":
		src = bestring.NDJSONScenes(r.Body)
	case "csv":
		src = bestring.CSVScenes(r.Body)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want ndjson or csv)", format))
		return
	}
	start := time.Now()
	stats, err := a.db.Import(r.Context(), src, opts)
	if err != nil {
		if a.redirectedWrite(w, r, err) {
			return
		}
		// Committed chunks stay durable even when the stream fails midway;
		// report them so the client knows a re-POST will resume, not redo.
		writeJSON(w, mutationStatus(err, queryStatus(err)), map[string]any{"error": err.Error(), "import": stats})
		return
	}
	log.Printf("import: %d images in %d chunks (%d resumed) in %s",
		stats.Images, stats.Chunks, stats.ResumedChunks, time.Since(start).Round(time.Millisecond))
	writeJSON(w, http.StatusOK, a.writeLSNs(map[string]any{"import": stats}))
}
