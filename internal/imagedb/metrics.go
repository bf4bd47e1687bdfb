package imagedb

import (
	"time"

	"bestring/internal/obs"
)

// dbMetrics holds the query-pipeline and group-commit instruments. One
// struct behind an atomic pointer on DB: nil means disabled, and the
// only cost when disabled is that pointer load, once per query in
// noteSearch and once per commit group.
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

	queueWaitSeconds *obs.Histogram
	groupSeconds     *obs.Histogram
	batchSize        *obs.Histogram
}

// EnableMetrics registers the whole engine on reg: the query pipeline,
// occupancy gauges, the group committer and the import tally and, on a
// durable engine, the WAL's append/fsync/rotation timings, checkpoint
// and LSN-horizon gauges and the torn-tail recovery count. Call once
// per registry, any time; a nil registry is a no-op.
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
		queueWaitSeconds: reg.Histogram("bestring_commit_queue_wait_seconds",
			"Time one mutation waited in the commit queue before its group drained.",
			obs.DurationBuckets()),
		groupSeconds: reg.Histogram("bestring_commit_group_seconds",
			"Wall time of one commit group: apply, one WAL frame, one fsync, one publish.",
			obs.DurationBuckets()),
		batchSize: reg.Histogram("bestring_commit_batch_size",
			"Mutations per drained commit group (the realised coalescing factor).",
			obs.SizeBuckets()),
	}
	for _, name := range planNames() {
		m.planTotal[name] = reg.Counter("bestring_query_plan_total",
			"Executed queries per planner-chosen stage order.", "plan", name)
	}
	reg.CounterFunc("bestring_scorer_cache_evictions_total",
		"Scorer-cache entries evicted by the per-shard LRU bound.",
		func() float64 { return float64(db.cache.evictions.Load()) })
	reg.GaugeFunc("bestring_scorer_cache_entries",
		"Entries currently held by the scorer cache.",
		func() float64 { return float64(db.cache.Len()) })
	reg.GaugeFunc("bestring_label_dict_labels",
		"Distinct icon labels in the store's label dictionary (grows on writes only, never shrinks).",
		func() float64 { return float64(db.labelDict().Len()) })
	reg.GaugeFunc("bestring_store_images",
		"Images in the current published version.",
		func() float64 { return float64(db.Len()) })
	reg.GaugeFunc("bestring_store_epoch",
		"Epoch of the current published version (one per mutation).",
		func() float64 { return float64(db.Epoch()) })
	// The commit totals come from the same mutex-guarded tally that
	// serves StoreStats, so a scrape is always coherent: mutations can
	// never read behind groups.
	reg.CounterFunc("bestring_commit_groups_total",
		"Published commit groups (one WAL frame, one fsync, one version each).",
		func() float64 { return float64(db.commitStats().Groups) })
	reg.CounterFunc("bestring_commit_mutations_total",
		"Mutations committed through groups.",
		func() float64 { return float64(db.commitStats().Mutations) })
	reg.CounterFunc("bestring_commit_rejected_total",
		"Per-caller validation failures inside commit groups.",
		func() float64 { return float64(db.commitStats().Rejected) })
	// Streaming-import tally (import.go): counters for committed and
	// resumed work plus a live-imports gauge, all from the importMu-guarded
	// tally so a scrape never tears chunks against images.
	reg.CounterFunc("bestring_import_chunks_total",
		"Import chunks committed (one WAL record, one fsync, one version each).",
		func() float64 { return float64(db.ImportStats().Chunks) })
	reg.CounterFunc("bestring_import_images_total",
		"Scenes committed through streaming imports.",
		func() float64 { return float64(db.ImportStats().Images) })
	reg.CounterFunc("bestring_import_bytes_total",
		"WAL bytes appended by import chunk records.",
		func() float64 { return float64(db.ImportStats().Bytes) })
	reg.CounterFunc("bestring_import_resumed_chunks_total",
		"Import chunks skipped because an interrupted earlier run already made them durable.",
		func() float64 { return float64(db.ImportStats().ResumedChunks) })
	reg.GaugeFunc("bestring_import_active",
		"Streaming imports running right now.",
		func() float64 { return float64(db.ImportStats().Active) })
	if db.log != nil {
		db.log.EnableMetrics(reg)
		reg.CounterFunc("bestring_checkpoints_total",
			"Checkpoints completed this session.",
			func() float64 { return float64(db.checkpoints.Load()) })
		reg.CounterFunc("bestring_wal_torn_tail_recoveries_total",
			"Torn WAL tails truncated by this process's recovery (crash artefacts healed by design).",
			func() float64 { return float64(db.recoveredTornTails) })
		reg.GaugeVec("bestring_store_lsn",
			"Store LSN horizons by kind: durable (fsynced), applied (in memory), visible (published), checkpoint (snapshotted), oldest (stream resume floor).",
			"kind", func() []obs.Sample {
				st := db.StoreStats()
				return []obs.Sample{
					{Label: "durable", Value: float64(st.WAL.DurableLSN)},
					{Label: "applied", Value: float64(st.AppliedLSN)},
					{Label: "visible", Value: float64(st.VisibleLSN)},
					{Label: "checkpoint", Value: float64(st.CheckpointLSN)},
					{Label: "oldest", Value: float64(st.WAL.OldestLSN)},
				}
			})
	}
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
