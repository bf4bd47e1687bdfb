package imagedb

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"time"

	"bestring/internal/core"
	"bestring/internal/obs"
)

// Hit is one result of a composed query.
type Hit struct {
	ID    string  `json:"id"`
	Name  string  `json:"name,omitempty"`
	Score float64 `json:"score"`
	// Where is the satisfied fraction of the spatial-predicate filter;
	// present only when the query has a Where clause.
	Where float64 `json:"where,omitempty"`
	// Full reports that every Where clause held.
	Full bool `json:"full,omitempty"`
}

// Page is one page of query results.
type Page struct {
	Hits []Hit `json:"hits"`
	// Total counts the results matching the query — after filters,
	// MinScore and the cursor, before K/Offset truncation.
	Total int `json:"total"`
	// NextCursor resumes the ranking after the last hit of this page;
	// empty when the ranking is exhausted. The cursor pins this page's
	// epoch, so (while the version stays retained) later pages read the
	// exact same state and can neither skip nor duplicate a hit under
	// concurrent writers.
	NextCursor string `json:"nextCursor,omitempty"`
	// Epoch identifies the immutable version this page was computed from.
	Epoch uint64 `json:"epoch,omitempty"`
	// Stages reports how many candidates each pipeline stage let
	// through for this query — the observability hook for pruning
	// efficacy. Always populated by the pipeline.
	Stages *StageCounts `json:"stages,omitempty"`
	// Plan records how this query's candidate set was assembled, the
	// estimate of the label narrowing and the query's scorer-cache
	// hit/miss counts (plan.go). Always populated by the pipeline;
	// surfaced by the CLI's -explain and the server's "debug":true.
	Plan *QueryPlan `json:"plan,omitempty"`
}

// StageCounts are the per-stage candidate counts of one executed query:
// how the staged pipeline narrowed the corpus down to the entries that
// actually paid an exact scorer evaluation. Hits/Total/NextCursor are
// byte-identical whatever these counts say; they only describe how much
// work producing them took. Indexed >= Region >= Narrowed.
type StageCounts struct {
	// Indexed counts the candidates the posting-run narrowing resolved:
	// the images that hold both labels of a Where constraint (of every
	// constraint, when all must hold; of at least one otherwise), share a
	// label with the query image under LabelPrefilter, and hold the
	// region label — whichever of the three the query has. The full
	// version size when it has none.
	Indexed int `json:"indexed"`
	// Region counts the Indexed candidates that passed the region test
	// (equal to Indexed when the query has no region).
	Region int `json:"region"`
	// Narrowed counts candidates surviving the spatial-predicate filter
	// — the set entering ranked scoring.
	Narrowed int `json:"narrowed"`
	// Bounded counts candidates whose signature upper bound was
	// computed in the refine stage (zero when the scorer has no bound —
	// the type-i baselines — or the query has no ranked image).
	Bounded int `json:"bounded"`
	// Evaluated counts exact score determinations: scorer runs plus
	// scorer-cache hits (a hit serves the identical exact score; the
	// split is Page.Plan.CacheHits/CacheMisses).
	Evaluated int `json:"evaluated"`
	// Pruned counts candidates rejected on the bound alone, including
	// those the rank stage never visited because it stopped in bound
	// order: Bounded = Evaluated' + Pruned where Evaluated' is the
	// bounded candidates that went on to exact evaluation. Under
	// parallelism the split between Evaluated and Pruned can vary run to
	// run (it depends on how fast each worker's top-K floor rises); the
	// ranking cannot.
	Pruned int `json:"pruned"`
	// HalfRefined counts the Evaluated candidates whose evaluation
	// stopped after its first stage — the BE scorer's X-axis LCS — because
	// the exact X length plus the Y axis's bound already lost.
	HalfRefined int `json:"halfRefined"`

	// Per-stage wall-clock time in nanoseconds, chained so the four
	// stage timers cover the pipeline body with no gaps; TotalNanos
	// additionally covers scorer resolution and query conversion before
	// stage 1. Omitted from JSON when zero (e.g. pages decoded from old
	// servers). These feed the bestring_query_stage_seconds histograms
	// and the slow-query log. IndexNanos covers the posting-run merges
	// and their resolution to entries, RegionNanos the region test.
	IndexNanos  int64 `json:"indexNs,omitempty"`
	RegionNanos int64 `json:"regionNs,omitempty"`
	FilterNanos int64 `json:"filterNs,omitempty"`
	RankNanos   int64 `json:"rankNs,omitempty"`
	TotalNanos  int64 `json:"totalNs,omitempty"`
}

// sinceNanos returns the nanoseconds elapsed since *t and resets *t to
// now, so consecutive stage timers chain without gaps or overlap.
func sinceNanos(t *time.Time) int64 {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return int64(d)
}

// recordSpans mirrors one executed query's stage timings onto the
// request trace (when one rides the context), so a slow-query log
// entry shows where inside the pipeline the time went.
func recordSpans(ctx context.Context, start time.Time, sc *StageCounts) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return
	}
	at := start
	for _, s := range []struct {
		name string
		ns   int64
	}{
		{"stage.index", sc.IndexNanos},
		{"stage.region", sc.RegionNanos},
		{"stage.filter", sc.FilterNanos},
		{"stage.rank", sc.RankNanos},
	} {
		tr.AddSpan(s.name, at, time.Duration(s.ns))
		at = at.Add(time.Duration(s.ns))
	}
}

// candidate is one image that survived the narrowing stages, with its
// spatial-predicate evaluation when the query has a Where clause.
type candidate struct {
	st    *stored
	where float64
}

// Query executes a composed retrieval request against the store. The
// candidate set flows through staged narrowers, cheapest first —
// posting-run merges over the inverted label index, the region test,
// spatial-predicate evaluation — and only the survivors reach the ranked
// top-K scoring the engine runs for plain similarity search. Extra
// options apply to a copy, so the Query value can be reused. The ranking
// is deterministic: score descending, id ascending on ties, whatever the
// shard count or parallelism.
//
// The whole pipeline runs against one pinned version of the store: an
// epoch is resolved once (the cursor's epoch when resuming a paginated
// query and that version is still retained, the current version
// otherwise) and no lock is acquired after that.
func (db *DB) Query(ctx context.Context, q *Query, opts ...QueryOption) (*Page, error) {
	spec := q.clone().apply(opts)
	snap, cur, err := db.resolve(spec)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	page, err := executeOn(ctx, db, snap, spec, cur)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	db.metrics.observeQuery(page)
	return page, nil
}

// iterBatch is the page size QueryIter fetches per cursor step.
const iterBatch = 256

// QueryIter streams the query's results in ranking order. It pages
// through the store with cursors (batches of iterBatch), so memory
// stays O(batch) even when the ranking is unbounded; WithK caps the
// total results yielded. The iterator pins one version of the store
// when it starts and streams every batch from it, so the sequence is a
// consistent point-in-time ranking: concurrent writers can neither
// remove a hit from the stream nor inject one mid-iteration. On error
// the sequence yields a zero Hit with the error and stops.
func (db *DB) QueryIter(ctx context.Context, q *Query, opts ...QueryOption) iter.Seq2[Hit, error] {
	spec := q.clone().apply(opts)
	return func(yield func(Hit, error) bool) {
		snap, cur, err := db.resolve(spec)
		if err != nil {
			yield(Hit{}, fmt.Errorf("query: %w", err))
			return
		}
		iterOn(ctx, db, snap, spec, cur, db.metrics.observeQuery)(yield)
	}
}

// iterOn streams a query's results from one pinned version — the shared
// engine behind DB.QueryIter and Snapshot.QueryIter. db supplies the
// scorer cache; cur is the decoded resume position of the spec's
// initial cursor, if any; note (optional) receives each executed
// batch's page so a DB-backed iteration feeds the cumulative search
// counters.
func iterOn(ctx context.Context, db *DB, snap *snapshot, spec *Query, cur *cursorPos, note func(*Page)) iter.Seq2[Hit, error] {
	return func(yield func(Hit, error) bool) {
		s := spec.clone()
		unlimited := s.k == 0
		remaining := s.k
		for {
			step := s.clone()
			step.k = iterBatch
			if !unlimited && remaining < step.k {
				step.k = remaining
			}
			p, err := executeOn(ctx, db, snap, step, cur)
			if err != nil {
				yield(Hit{}, fmt.Errorf("query: %w", err))
				return
			}
			if note != nil {
				note(p)
			}
			for _, h := range p.Hits {
				if !yield(h, nil) {
					return
				}
			}
			if !unlimited {
				if remaining -= len(p.Hits); remaining <= 0 {
					return
				}
			}
			if p.NextCursor == "" {
				return
			}
			c, err := decodeCursor(p.NextCursor)
			if err != nil {
				yield(Hit{}, fmt.Errorf("query: %w", err))
				return
			}
			cur, s.offset = &c, 0
		}
	}
}

// resolve pins the version a query spec should run against — the epoch
// its cursor carries when that version is still retained, the current
// version otherwise — and returns the decoded cursor so the pipeline
// does not parse the token twice. One or two atomic loads, no locks. A
// sticky builder error or an undecodable cursor surfaces here so the
// pipeline never starts on a broken spec.
func (db *DB) resolve(q *Query) (*snapshot, *cursorPos, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	cur, err := q.decodedCursor()
	if err != nil {
		return nil, nil, err
	}
	if cur != nil && cur.Epoch != 0 {
		if pinned := db.findEpoch(cur.Epoch); pinned != nil {
			return pinned, cur, nil
		}
	}
	return db.current.Load(), cur, nil
}

// executeOn runs the staged pipeline against one pinned, immutable
// version; db supplies the scorer cache and the metrics; cur is the
// query's already-decoded cursor (nil when none). From here on the query
// acquires no locks: every stage — label narrowing, region test,
// predicate evaluation, top-K scoring — reads frozen maps, columns and
// runs, so the view is consistent by construction and concurrent writers
// cost readers nothing.
func executeOn(ctx context.Context, db *DB, snap *snapshot, q *Query, cur *cursorPos) (*Page, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.image == nil && q.dsl == nil && q.region == nil {
		return nil, fmt.Errorf("empty query: need an image, a where clause or a region")
	}
	start := time.Now()

	// Resolve the scorer up front so an unknown name fails fast even if
	// no candidate survives the filters. A scorer with a bound enables
	// the refine stage below; a cacheable one lets the scorer cache
	// serve its exact scores.
	var sc *namedScorer
	if q.image != nil || q.scorerName != "" {
		var ok bool
		if sc, ok = lookupScorer(q.scorerName); !ok {
			return nil, fmt.Errorf("unknown scorer %q (known: %s)",
				q.scorerName, strings.Join(ScorerNames(), ", "))
		}
	}

	var img core.Image
	var queryBE core.BEString
	if q.image != nil {
		img = *q.image
		var err error
		if queryBE, err = core.Convert(img); err != nil {
			return nil, err
		}
	}

	// The Where threshold: with a ranked component the clause is a filter
	// (default: every constraint must hold); without one the satisfied
	// fraction becomes the ranking score and any positive fraction passes.
	whereMin := q.whereMin
	if whereMin < 0 {
		whereMin = 0
		if q.image != nil {
			whereMin = 1
		}
	}

	// Stage 1 — label narrowing: what the query can narrow by before it
	// looks at an entry, as one expression of merges per shard, resolved
	// against the shard's scan column (postings.go). A query with no label
	// to narrow by — no Where clause, no LabelPrefilter, no region label —
	// keeps the version's own scan columns: shared and immutable, so read
	// in place and never filtered in place.
	mark := time.Now()
	nar := compileNarrowing(snap.dict, q, whereMin)
	plan := planQuery(snap, q, &nar)
	stages := &StageCounts{Indexed: snap.count}
	cols := snap.scanColumns()
	if nar.active() {
		cands0 := make([]*stored, 0, plan.EstLabel)
		for _, sv := range snap.shards {
			cands0 = resolveRun(cands0, sv.scan, nar.run(sv))
		}
		stages.Indexed, cols = len(cands0), [][]*stored{cands0}
	}
	stages.IndexNanos = sinceNanos(&mark)

	// Stage 2 — region: the geometric test on every surviving candidate
	// (the whole version, for an unlabelled region with nothing else to
	// narrow by), into a slice this query owns.
	stages.Region = stages.Indexed
	if q.region != nil {
		var kept []*stored
		if nar.active() {
			kept = cols[0][:0] // ours: filter in place
		}
		seen := 0
		for _, col := range cols {
			for _, st := range col {
				if seen&1023 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				seen++
				if regionMatches(&st.Image, *q.region, q.regionLabel) {
					kept = append(kept, st)
				}
			}
		}
		stages.Region, cols = len(kept), [][]*stored{kept}
	}
	stages.RegionNanos = sinceNanos(&mark)

	// Stage 3 — spatial-predicate evaluation. Without a Where clause the
	// narrowed columns are the ranked set as they stand; the candidate
	// wrapper exists only to carry a clause's satisfied fraction, which
	// is the ranking score of a query without an image. (A Where clause
	// always narrows, so there is exactly one column to evaluate.)
	narrowed := stages.Region
	var cands []candidate
	if q.dsl != nil {
		cands = make([]candidate, 0, narrowed)
		for i, st := range cols[0] {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			frac, _ := q.dsl.Eval(st.Image)
			if frac <= 0 || frac < whereMin {
				continue
			}
			cands = append(cands, candidate{st: st, where: frac})
		}
		narrowed = len(cands)
	}
	stages.FilterNanos = sinceNanos(&mark)

	stages.Narrowed = narrowed
	if narrowed == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stages.TotalNanos = int64(time.Since(start))
		recordSpans(ctx, start, stages)
		return &Page{Hits: []Hit{}, Epoch: snap.epoch, Stages: stages, Plan: plan}, nil
	}

	// Stage 4 — ranked scoring over the survivors, on the same bounded
	// top-K heap machinery as a plain ranked query. The ranking score is the
	// scorer when the query has an image, the satisfied fraction when
	// spatial satisfaction itself is the ranking, and 0 for region-only
	// queries (ties break by id, so those list in id order).

	// Scorer cache: a cacheable scorer's exact score is a pure function
	// of (scorer, query BE, entry version), so the DB-wide memo
	// can serve it byte-identically; the *stored pointer in the key is
	// the entry version (see scorercache.go). The query-side half of the
	// key is computed once here.
	//
	// The cache is consulted only from a query key's second sighting on
	// (cacheDoorkeeper): a first-time query bypasses it — no lookups, no
	// fills — and says so in the plan.
	var cache *scorerCache
	var qkey string
	var qhash uint64
	if q.image != nil && sc.cacheable {
		qkey = cacheQueryKey(sc.name, queryBE)
		qhash = hashQueryKey(qkey)
		if db.doorkeeper.sighted(qhash) {
			cache = db.cache
		} else {
			plan.CacheBypassed = true
		}
	}

	// Heap capacity covers the page plus the offset it skips, clamped to
	// the candidate count so a client cannot drive preallocation.
	heapK := 0
	if q.k > 0 {
		heapK = min(q.k+q.offset, narrowed)
	}

	// The rank stage's filter half. With a bounded scorer and a ranked
	// image, every candidate's signature upper bound is computed
	// first (O(|labels|), no dynamic program) and the candidates are
	// refined in descending bound order; the exact scorer runs only while
	// the bound could still place the candidate. Pruning never alters
	// results — see the admission notes in ranker.refine; each skip is
	// taken only when the evaluated path would provably have made the
	// same decision.
	//
	// The query side of both halves is integer work prepared once, here,
	// after the version was pinned: the query's signature and codes are
	// looked up in the version's label dictionary — never added to it —
	// so a query label no entry of this version carries becomes a symbol
	// that matches nothing, which is exactly what it is.
	rk := &ranker{
		q: q, cur: cur, cache: cache, qkey: qkey, qhash: qhash, met: db.metrics,
		cols: cols, filtered: cands,
	}
	if q.image != nil {
		qsig, ids := core.SignatureOf(queryBE).Lookup(snap.dict)
		rk.qsig, rk.lengths = &qsig, sc.lengths
		if sc.lengths != nil {
			rk.qlen = sc.lengths.norm(&qsig)
		}
		rk.kernel = sc.kernel(&preparedQuery{img: img, be: queryBE, sig: &qsig, encode: func(be core.BEString) core.CodedBE {
			return core.EncodeBE(make([]uint32, len(be.X)+len(be.Y)), be, qsig.Labels, ids)
		}})
		if q.wrapKernel != nil {
			rk.kernel = q.wrapKernel(rk.kernel)
		}
	}
	heaps, tally, err := rk.run(ctx, narrowed, heapK)
	if err != nil {
		return nil, err
	}
	total := tally.admitted
	if rk.lengths != nil {
		stages.Bounded = narrowed
	}
	stages.Evaluated = tally.evaluated
	stages.HalfRefined = tally.halfRefined
	stages.Pruned = tally.pruned
	plan.CacheHits = tally.cacheHits
	plan.CacheMisses = tally.cacheMisses
	ranked := mergeTopK(heaps, heapK)

	// Pagination: drop the offset, truncate to the page.
	if q.offset >= len(ranked) {
		ranked = ranked[:0]
	} else {
		ranked = ranked[q.offset:]
	}
	if q.k > 0 && len(ranked) > q.k {
		ranked = ranked[:q.k]
	}

	page := &Page{Hits: make([]Hit, len(ranked)), Total: total, Epoch: snap.epoch, Stages: stages, Plan: plan}
	for i, r := range ranked {
		h := Hit{ID: r.ID, Name: r.Name, Score: r.Score}
		if q.dsl != nil {
			// Only the page's hits report their evaluation, so it is
			// redone for those few instead of being kept for every survivor.
			st, _ := snap.lookup(r.ID)
			h.Where, h.Full = q.dsl.Eval(st.Image)
		}
		page.Hits[i] = h
	}
	if q.k > 0 && len(page.Hits) == q.k && total > q.offset+q.k {
		page.NextCursor = encodeCursor(ranked[len(ranked)-1], snap.epoch)
	}
	stages.RankNanos = sinceNanos(&mark)
	stages.TotalNanos = int64(time.Since(start))
	recordSpans(ctx, start, stages)
	return page, nil
}
