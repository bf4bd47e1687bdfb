package imagedb

import (
	"time"

	"bestring/internal/obs"
)

// dbMetrics holds the query-pipeline instruments. One struct behind an
// atomic pointer on DB: nil means disabled, and the only per-query
// cost when disabled is that pointer load in noteSearch.
type dbMetrics struct {
	queries      *obs.Counter
	querySeconds *obs.Histogram

	indexSeconds  *obs.Histogram
	regionSeconds *obs.Histogram
	filterSeconds *obs.Histogram
	rankSeconds   *obs.Histogram

	candIndexed   *obs.Counter
	candRegion    *obs.Counter
	candNarrowed  *obs.Counter
	candBounded   *obs.Counter
	candEvaluated *obs.Counter
	candPruned    *obs.Counter

	// planTotal counts executed queries per chosen plan. Every plan name
	// is registered up front (bounded set, see planNames) so the series
	// are visible on /metrics before the first query picks each plan.
	planTotal map[string]*obs.Counter

	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	cacheBypassed      *obs.Counter
	cacheLookupSeconds *obs.Histogram
}

// EnableMetrics registers the DB's query instruments and occupancy
// gauges on reg. Call once per registry, any time; a nil registry is a
// no-op. Store.EnableMetrics calls this for a durable engine.
func (db *DB) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	const stageHelp = "Wall time of one staged-pipeline stage per executed query."
	const candHelp = "Cumulative candidates seen per pipeline stage (selectivity feed for the planner)."
	m := &dbMetrics{
		queries: reg.Counter("bestring_query_total",
			"Executed queries (each QueryIter batch counts once)."),
		querySeconds: reg.Histogram("bestring_query_seconds",
			"End-to-end staged-pipeline latency per executed query.",
			obs.DurationBuckets()),
		indexSeconds:  reg.Histogram("bestring_query_stage_seconds", stageHelp, obs.DurationBuckets(), "stage", "index"),
		regionSeconds: reg.Histogram("bestring_query_stage_seconds", stageHelp, obs.DurationBuckets(), "stage", "region"),
		filterSeconds: reg.Histogram("bestring_query_stage_seconds", stageHelp, obs.DurationBuckets(), "stage", "filter"),
		rankSeconds:   reg.Histogram("bestring_query_stage_seconds", stageHelp, obs.DurationBuckets(), "stage", "rank"),
		candIndexed:   reg.Counter("bestring_query_candidates_total", candHelp, "stage", "indexed"),
		candRegion:    reg.Counter("bestring_query_candidates_total", candHelp, "stage", "region"),
		candNarrowed:  reg.Counter("bestring_query_candidates_total", candHelp, "stage", "narrowed"),
		candBounded:   reg.Counter("bestring_query_candidates_total", candHelp, "stage", "bounded"),
		candEvaluated: reg.Counter("bestring_query_candidates_total", candHelp, "stage", "evaluated"),
		candPruned:    reg.Counter("bestring_query_candidates_total", candHelp, "stage", "pruned"),
		planTotal:     make(map[string]*obs.Counter, len(planNames())),
		cacheHits: reg.Counter("bestring_scorer_cache_hits_total",
			"Exact scorer evaluations served from the scorer cache."),
		cacheMisses: reg.Counter("bestring_scorer_cache_misses_total",
			"Cacheable scorer evaluations that ran the scorer (and populated the cache)."),
		cacheBypassed: reg.Counter("bestring_scorer_cache_bypassed_total",
			"Cacheable queries that did not consult the scorer cache (first sighting of their key)."),
		cacheLookupSeconds: reg.Histogram("bestring_scorer_cache_lookup_seconds",
			"Scorer-cache lookup latency (hits and misses alike).",
			obs.DurationBuckets()),
	}
	for _, name := range planNames() {
		m.planTotal[name] = reg.Counter("bestring_query_plan_total",
			"Executed queries per planner-chosen stage order.", "plan", name)
	}
	reg.CounterFunc("bestring_scorer_cache_evictions_total",
		"Scorer-cache entries evicted by the per-shard LRU bound.",
		func() float64 { return float64(db.cacheEvictions.Load()) })
	reg.GaugeFunc("bestring_scorer_cache_entries",
		"Entries currently held by the scorer cache (0 when disabled).",
		func() float64 {
			if c := db.cache.Load(); c != nil {
				return float64(c.Len())
			}
			return 0
		})
	reg.GaugeFunc("bestring_label_dict_labels",
		"Distinct icon labels in the store's label dictionary (grows on writes only, never shrinks).",
		func() float64 { return float64(db.labelDict().Len()) })
	reg.GaugeFunc("bestring_store_images",
		"Images in the current published version.",
		func() float64 { return float64(db.Len()) })
	reg.GaugeFunc("bestring_store_epoch",
		"Epoch of the current published version (one per mutation).",
		func() float64 { return float64(db.Epoch()) })
	db.metrics.Store(m)
}

// observeQuery feeds one executed query's stage counts, timings, plan
// choice and cache outcomes into the registry. Called from noteSearch,
// outside searchMu.
func (m *dbMetrics) observeQuery(page *Page) {
	sc := page.Stages
	if p := page.Plan; p != nil {
		if c, ok := m.planTotal[p.Name]; ok {
			c.Inc()
		}
		m.cacheHits.Add(uint64(p.CacheHits))
		m.cacheMisses.Add(uint64(p.CacheMisses))
		if p.CacheBypassed {
			m.cacheBypassed.Inc()
		}
	}
	m.queries.Inc()
	m.querySeconds.Observe(float64(sc.TotalNanos) / 1e9)
	m.indexSeconds.Observe(float64(sc.IndexNanos) / 1e9)
	m.regionSeconds.Observe(float64(sc.RegionNanos) / 1e9)
	m.filterSeconds.Observe(float64(sc.FilterNanos) / 1e9)
	m.rankSeconds.Observe(float64(sc.RankNanos) / 1e9)
	m.candIndexed.Add(uint64(sc.Indexed))
	m.candRegion.Add(uint64(sc.Region))
	m.candNarrowed.Add(uint64(sc.Narrowed))
	m.candBounded.Add(uint64(sc.Bounded))
	m.candEvaluated.Add(uint64(sc.Evaluated))
	m.candPruned.Add(uint64(sc.Pruned))
}

// observeCacheLookup records one scorer-cache lookup's latency. Called
// from the scoring workers, only when metrics are enabled.
func (m *dbMetrics) observeCacheLookup(d time.Duration) {
	m.cacheLookupSeconds.Observe(d.Seconds())
}
