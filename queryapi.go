package bestring

import (
	"bestring/internal/imagedb"
)

// Composable query types, re-exported. A Query is built once with
// NewQuery/NewMatchQuery plus functional options and executed with
// DB.Query (one page) or DB.QueryIter (a stream):
//
//	page, err := db.Query(ctx, bestring.NewQuery(img),
//	        bestring.WithK(10),
//	        bestring.WithScorer("invariant"),
//	        bestring.Where("A left-of B"),
//	        bestring.InRegion(bestring.NewRect(0, 0, 40, 40)),
//	        bestring.WithMinScore(0.4))
//
// Inside the engine the query compiles into a staged candidate pipeline:
// posting-run merges over the inverted label index, then the region
// test, then spatial-predicate evaluation, and only the survivors reach
// ranked top-K scoring — so DSL and region retrieval are filters on
// ranked search, not separate code paths.
type (
	// Query is a composable retrieval request (ranked similarity +
	// spatial-predicate filter + region filter + pagination).
	Query = imagedb.Query
	// QueryOption configures a Query.
	QueryOption = imagedb.QueryOption
	// QueryPage is one page of query results.
	QueryPage = imagedb.Page
	// QueryHit is one result of a composed query.
	QueryHit = imagedb.Hit
	// QueryStages are the per-stage candidate counts of one executed
	// query (narrowed -> bounded -> evaluated/pruned), reported on every
	// QueryPage for pruning-efficacy observability.
	QueryStages = imagedb.StageCounts
	// ScorerBound is a cheap upper bound on a scorer's exact score,
	// computed from two symbol signatures (see RegisterBoundedScorer for
	// the soundness contract).
	ScorerBound = imagedb.Bound
	// SearchStats are a DB's cumulative filter-and-refine counters.
	SearchStats = imagedb.SearchStats
	// QueryPlan records how one executed query's candidate set was
	// assembled, the label-narrowing estimate and the query's
	// scorer-cache hit/miss counts; reported on every QueryPage.
	QueryPlan = imagedb.QueryPlan
)

// DefaultScorerName is the registry name used when a query names no
// scorer.
const DefaultScorerName = imagedb.DefaultScorerName

// NewQuery returns a ranked-retrieval query for the image, to be refined
// with options and executed by DB.Query or DB.QueryIter.
func NewQuery(img Image) *Query { return imagedb.NewQuery(img) }

// NewMatchQuery returns a query with no ranked component: results order
// by spatial-predicate satisfaction (with Where) or by id (region-only).
func NewMatchQuery() *Query { return imagedb.NewMatchQuery() }

// WithK limits the page to the best k results (0 means all).
func WithK(k int) QueryOption { return imagedb.WithK(k) }

// WithOffset skips the first n results of the ranking. For pagination
// that stays stable under concurrent inserts, prefer WithCursor.
func WithOffset(n int) QueryOption { return imagedb.WithOffset(n) }

// WithCursor resumes a paginated query after the position encoded in a
// previous QueryPage.NextCursor.
func WithCursor(c string) QueryOption { return imagedb.WithCursor(c) }

// WithScorer selects a registered scorer by name ("" means the default
// BE-LCS scorer); see RegisterScorer.
func WithScorer(name string) QueryOption { return imagedb.WithScorer(name) }

// WithScorerFunc ranks with an explicit scorer, bypassing the registry.
func WithScorerFunc(s Scorer) QueryOption { return imagedb.WithScorerFunc(s) }

// Where filters results with a spatial-predicate expression
// ("A left-of B; B above C"). With a ranked component the filter keeps
// images satisfying every clause (tune with WithWhereMin); without one
// the satisfied fraction becomes the ranking score.
func Where(dsl string) QueryOption { return imagedb.Where(dsl) }

// WhereQuery is Where for an already-parsed SpatialQuery.
func WhereQuery(q SpatialQuery) QueryOption { return imagedb.WhereQuery(q) }

// WithWhereMin sets the satisfied fraction a result's Where evaluation
// must reach, in (0, 1].
func WithWhereMin(f float64) QueryOption { return imagedb.WithWhereMin(f) }

// InRegion keeps images with at least one icon intersecting the region.
func InRegion(r Rect) QueryOption { return imagedb.InRegion(r) }

// InRegionLabel is InRegion restricted to icons with the given label.
func InRegionLabel(r Rect, label string) QueryOption {
	return imagedb.InRegionLabel(r, label)
}

// WithMinScore drops results scoring strictly below the threshold.
func WithMinScore(f float64) QueryOption { return imagedb.WithMinScore(f) }

// WithParallelism bounds the scoring workers (0 means GOMAXPROCS).
func WithParallelism(n int) QueryOption { return imagedb.WithParallelism(n) }

// WithLabelPrefilter restricts scoring to images sharing at least one
// icon label with the query image.
func WithLabelPrefilter(on bool) QueryOption {
	return imagedb.WithLabelPrefilter(on)
}

// ScorerCacheable reports whether the named scorer's evaluations are
// eligible for the scorer cache ("" resolves to the default).
func ScorerCacheable(name string) bool { return imagedb.ScorerCacheable(name) }

// RegisterScorer adds a named scorer to the registry shared by the
// library, the CLI and the REST server, with no upper bound (queries
// ranking with it evaluate every candidate exactly). Built-in names:
// be, invariant, type0, type1, type2, symbols.
func RegisterScorer(name string, s Scorer) error {
	return imagedb.RegisterScorer(name, s)
}

// RegisterBoundedScorer adds a named scorer together with its signature
// upper bound, enabling filter-and-refine pruning for queries ranking
// with it. The bound must dominate the scorer's exact score (which must
// be non-negative) for every query/entry pair — see the Bound contract
// in internal/imagedb; a violating bound silently corrupts rankings.
func RegisterBoundedScorer(name string, s Scorer, b ScorerBound) error {
	return imagedb.RegisterBoundedScorer(name, s, b)
}

// LookupScorer resolves a registered scorer by name ("" resolves to the
// default).
func LookupScorer(name string) (Scorer, bool) {
	return imagedb.LookupScorer(name)
}

// LookupBound resolves the upper bound a registered scorer declared
// ("" resolves to the default; ok is false for exact-only scorers).
func LookupBound(name string) (ScorerBound, bool) {
	return imagedb.LookupBound(name)
}

// ScorerNames lists the registered scorer names, sorted.
func ScorerNames() []string { return imagedb.ScorerNames() }
