package imagedb

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"bestring/internal/core"
	"bestring/internal/query"
)

// Query is a composable retrieval request: any combination of a ranked
// similarity component (a query image), a spatial-predicate filter
// (Where), and a region filter (InRegion), plus pagination and engine
// knobs. Build one with NewQuery or NewMatchQuery and functional options,
// then execute it with DB.Query or stream it with DB.QueryIter:
//
//	page, err := db.Query(ctx, NewQuery(img),
//	        WithK(10), WithScorer("invariant"),
//	        Where("A left-of B"), InRegion(rect), WithMinScore(0.4))
//
// A Query value is immutable once built from the caller's perspective:
// DB.Query applies extra options to a copy, so a Query can be reused and
// shared across goroutines.
type Query struct {
	image       *core.Image
	dsl         *query.Query
	whereMin    float64 // -1 means default (1.0 with an image, any-positive without)
	region      *core.Rect
	regionLabel string

	scorerName string // one of ScorerNames, "" means DefaultScorerName
	// wrapKernel, when set, wraps the scorer's per-query kernel. It is
	// a test seam: only _test.go files set it, to count or interrupt
	// kernel calls.
	wrapKernel func(scoreKernel) scoreKernel

	k      int
	offset int
	cursor string

	minScore       float64
	parallelism    int
	labelPrefilter bool

	err error // sticky builder error, surfaced by DB.Query
}

// QueryOption configures a Query.
type QueryOption func(*Query)

// NewQuery returns a ranked-retrieval query for the image, to be refined
// with options.
func NewQuery(img core.Image) *Query {
	c := img.Clone()
	return &Query{image: &c, whereMin: -1}
}

// NewMatchQuery returns a query with no ranked component: results are
// ordered by spatial-predicate satisfaction (when Where is set) or by id
// (region-only queries). At least one of Where or InRegion must be added
// before execution.
func NewMatchQuery() *Query {
	return &Query{whereMin: -1}
}

// clone returns a copy the pipeline may mutate without affecting the
// caller's Query.
func (q *Query) clone() *Query {
	c := *q
	return &c
}

// apply runs the options over the query, preserving the first sticky
// error.
func (q *Query) apply(opts []QueryOption) *Query {
	for _, opt := range opts {
		opt(q)
	}
	return q
}

// Err returns the sticky builder error, if any option failed (for
// example a Where clause that does not parse). DB.Query surfaces it, so
// checking here is optional.
func (q *Query) Err() error { return q.err }

// fail records the first builder error.
func (q *Query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// WithK limits the page to the best k results (0 means all).
func WithK(k int) QueryOption {
	return func(q *Query) {
		if k < 0 {
			q.fail(fmt.Errorf("negative k %d", k))
			return
		}
		q.k = k
	}
}

// WithOffset skips the first n results of the ranking (offset
// pagination). For pagination that stays stable under concurrent
// inserts, prefer WithCursor.
func WithOffset(n int) QueryOption {
	return func(q *Query) {
		if n < 0 {
			q.fail(fmt.Errorf("negative offset %d", n))
			return
		}
		q.offset = n
	}
}

// WithCursor resumes a paginated query after the position encoded in a
// previous Page.NextCursor. The cursor pins the epoch its page was
// computed from, so while that version stays retained the page sequence
// is exactly the pinned version's ranking (no skips, no duplicates,
// whatever concurrent writers do); once it ages out, the query falls
// back to the current version and results already delivered still never
// reappear.
func WithCursor(c string) QueryOption {
	return func(q *Query) { q.cursor = c }
}

// WithScorer selects the ranking scorer by name, one of ScorerNames:
// be, invariant, symbols, type0, type1 or type2 ("" means the default
// BE-LCS scorer). An unknown name fails the query when it executes.
func WithScorer(name string) QueryOption {
	return func(q *Query) { q.scorerName = name }
}

// Where filters results with a spatial-predicate expression in the
// internal/query surface syntax ("A left-of B; B above C"). With a
// ranked component the filter keeps images satisfying every clause
// (tune with WithWhereMin); without one, the satisfied fraction becomes
// the ranking score. A parse error is sticky and surfaces when the query
// executes.
func Where(dsl string) QueryOption {
	return func(q *Query) {
		parsed, err := query.Parse(dsl)
		if err != nil {
			q.fail(err)
			return
		}
		q.dsl = &parsed
	}
}

// WhereQuery is Where for an already-parsed spatial query.
func WhereQuery(sq query.Query) QueryOption {
	return func(q *Query) {
		if len(sq.Constraints) == 0 {
			q.fail(fmt.Errorf("empty query"))
			return
		}
		q.dsl = &sq
	}
}

// WithWhereMin sets the satisfied fraction a result's Where evaluation
// must reach to survive the filter, in (0, 1]. The default is 1 (every
// clause must hold) when the query has a ranked component, and
// any-positive-fraction when spatial satisfaction itself is the ranking.
func WithWhereMin(f float64) QueryOption {
	return func(q *Query) {
		if f <= 0 || f > 1 {
			q.fail(fmt.Errorf("where-min %v out of (0, 1]", f))
			return
		}
		q.whereMin = f
	}
}

// InRegion keeps images with at least one icon whose MBR intersects the
// region (tested per candidate, before any scoring).
func InRegion(r core.Rect) QueryOption {
	return func(q *Query) {
		if !r.Valid() {
			q.fail(fmt.Errorf("invalid region %v", r))
			return
		}
		q.region = &r
	}
}

// InRegionLabel is InRegion restricted to icons with the given label
// ("" means any label). The label narrows the candidates to its posting
// runs before the first box is looked at.
func InRegionLabel(r core.Rect, label string) QueryOption {
	return func(q *Query) {
		InRegion(r)(q)
		q.regionLabel = label
	}
}

// WithMinScore drops results whose ranking score is strictly below the
// threshold (a result scoring exactly the threshold is kept).
func WithMinScore(f float64) QueryOption {
	return func(q *Query) { q.minScore = f }
}

// WithParallelism bounds the scoring workers (0 means GOMAXPROCS).
func WithParallelism(n int) QueryOption {
	return func(q *Query) {
		if n < 0 {
			q.fail(fmt.Errorf("negative parallelism %d", n))
			return
		}
		q.parallelism = n
	}
}

// WithLabelPrefilter restricts scoring to images sharing at least one
// icon label with the query image (via the inverted label index).
// Images that share nothing would score near zero anyway; skipping them
// trades exact tail ordering for throughput on large collections.
func WithLabelPrefilter(on bool) QueryOption {
	return func(q *Query) { q.labelPrefilter = on }
}

// cursorPos is the decoded pagination cursor: the ranking position
// (score, id) of the last delivered result, plus the epoch of the
// version the page was computed from. Resuming re-pins that version
// while it stays retained (see snapshotRetention), making page sets
// exact — no skips, no duplicates — under concurrent writers. The
// admission rule (only results strictly worse in the canonical order)
// additionally holds on whatever version serves the next page, so even
// after the epoch ages out, already-delivered results cannot reappear.
// Epoch 0 means "no pin" (a cursor minted before epochs existed).
type cursorPos struct {
	Score float64 `json:"s"`
	ID    string  `json:"id"`
	Epoch uint64  `json:"e,omitempty"`
}

// encodeCursor renders a resume position as an opaque URL-safe token.
// A position that does not marshal (a NaN score from a custom scorer)
// yields no cursor rather than a broken one.
func encodeCursor(last Result, epoch uint64) string {
	raw, err := json.Marshal(cursorPos{Score: last.Score, ID: last.ID, Epoch: epoch})
	if err != nil {
		return ""
	}
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodedCursor parses the query's cursor token once (nil when the
// query has none); resolve and the Snapshot entry points thread the
// result into executeOn so the hot path never parses a token twice.
func (q *Query) decodedCursor() (*cursorPos, error) {
	if q.cursor == "" {
		return nil, nil
	}
	c, err := decodeCursor(q.cursor)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// decodeCursor parses a token produced by encodeCursor.
func decodeCursor(s string) (cursorPos, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return cursorPos{}, fmt.Errorf("bad cursor: %w", err)
	}
	var c cursorPos
	if err := json.Unmarshal(raw, &c); err != nil {
		return cursorPos{}, fmt.Errorf("bad cursor: %w", err)
	}
	return c, nil
}
