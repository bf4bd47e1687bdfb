package imagedb

import (
	"fmt"
	"sync/atomic"

	"bestring/internal/obs"
)

// dbMetrics holds the query-pipeline and group-commit instruments.
// NewSharded builds them on a registry of the DB's own, so they count
// from the DB's first write and query whether or not any registry
// serves them; Stats().Search and StoreStats().Commit read them, so an
// event is counted once. EnableMetrics only exposes them.
type dbMetrics struct {
	reg *obs.Registry

	queries      *obs.Counter
	querySeconds *obs.Histogram
	// stageSeconds times the index, region, filter and rank stages.
	stageSeconds [4]*obs.Histogram

	candIndexed   *obs.Counter
	candRegion    *obs.Counter
	candNarrowed  *obs.Counter
	candBounded   *obs.Counter
	candEvaluated *obs.Counter
	candPruned    *obs.Counter
	candHalf      *obs.Counter

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
	// batchSize observes the accepted mutations of each published
	// commit group: its count is CommitStats.Groups, its sum
	// CommitStats.Mutations.
	batchSize *obs.Histogram
	rejected  *obs.Counter
	largest   atomic.Uint64 // CommitStats.Largest: written under db.mu, read lock-free
}

// newDBMetrics declares the engine's instruments and the scrape-time
// views of its occupancy, commit and import tallies.
func newDBMetrics(db *DB) *dbMetrics {
	reg := obs.NewRegistry()
	const stageHelp = "Wall time of one staged-pipeline stage per executed query."
	const candHelp = "Cumulative candidates seen per pipeline stage (the narrowing funnel; Stats().Search reads the same counters)."
	m := &dbMetrics{
		reg: reg,
		queries: reg.Counter("bestring_query_total",
			"Executed queries (each QueryIter batch counts once)."),
		querySeconds: reg.Histogram("bestring_query_seconds",
			"End-to-end staged-pipeline latency per executed query.",
			obs.DurationBuckets()),
		candIndexed:   reg.Counter("bestring_query_candidates_total", candHelp, "stage", "indexed"),
		candRegion:    reg.Counter("bestring_query_candidates_total", candHelp, "stage", "region"),
		candNarrowed:  reg.Counter("bestring_query_candidates_total", candHelp, "stage", "narrowed"),
		candBounded:   reg.Counter("bestring_query_candidates_total", candHelp, "stage", "bounded"),
		candEvaluated: reg.Counter("bestring_query_candidates_total", candHelp, "stage", "evaluated"),
		candPruned:    reg.Counter("bestring_query_candidates_total", candHelp, "stage", "pruned"),
		candHalf:      reg.Counter("bestring_query_candidates_total", candHelp, "stage", "half_refined"),
		planTotal:     make(map[string]*obs.Counter, len(planNames())),
		cacheHits: reg.Counter("bestring_scorer_cache_hits_total",
			"Exact scorer evaluations served from the scorer cache."),
		cacheMisses: reg.Counter("bestring_scorer_cache_misses_total",
			"Cacheable scorer evaluations that ran the scorer (and populated the cache)."),
		cacheBypassed: reg.Counter("bestring_scorer_cache_bypassed_total",
			"Cacheable queries that did not consult the scorer cache (first sighting of their key)."),
		cacheLookupSeconds: reg.Histogram("bestring_scorer_cache_lookup_seconds",
			fmt.Sprintf("Scorer-cache lookup latency (hits and misses alike), sampled: each rank worker times its first lookup and every %dth after it.", cacheLookupSample),
			obs.DurationBuckets()),
		queueWaitSeconds: reg.Histogram("bestring_commit_queue_wait_seconds",
			"Time one mutation waited in the commit queue before its group drained.",
			obs.DurationBuckets()),
		groupSeconds: reg.Histogram("bestring_commit_group_seconds",
			"Wall time of one commit group: apply, one WAL frame, one fsync, one publish.",
			obs.DurationBuckets()),
		batchSize: reg.Histogram("bestring_commit_batch_size",
			"Mutations per published commit group (the realised coalescing factor).",
			obs.SizeBuckets()),
		rejected: reg.Counter("bestring_commit_rejected_total",
			"Per-caller validation failures inside commit groups."),
	}
	for i, stage := range []string{"index", "region", "filter", "rank"} {
		m.stageSeconds[i] = reg.Histogram("bestring_query_stage_seconds", stageHelp, obs.DurationBuckets(), "stage", stage)
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
		"Epoch of the current published version (one per published version: a commit group, an import chunk or a replicated batch).",
		func() float64 { return float64(db.Epoch()) })
	reg.CounterFunc("bestring_commit_groups_total",
		"Published commit groups (one WAL frame, one fsync, one version each).",
		func() float64 { return float64(m.batchSize.Count()) })
	reg.CounterFunc("bestring_commit_mutations_total",
		"Mutations committed through groups.",
		func() float64 { return m.batchSize.Sum() })
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
	return m
}

// EnableMetrics exposes the whole engine on reg: the query pipeline,
// occupancy gauges, the group committer and the import tally and, on a
// durable engine, the WAL's append/fsync/rotation timings, checkpoint
// and LSN-horizon gauges and the torn-tail recovery count. The
// instruments have counted since the DB was made; EnableMetrics only
// makes them visible (the durable-only families are scrape-time views
// of state the store keeps anyway). Call once per registry, any time.
func (db *DB) EnableMetrics(reg *obs.Registry) {
	reg.Include(db.metrics.reg)
	if db.log == nil {
		return
	}
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

// observeQuery counts one executed query's stage counts, timings, plan
// choice and cache outcomes. The query count goes first: a reader that
// loads the work counters before it (searchStats) can never see work
// without a query.
func (m *dbMetrics) observeQuery(page *Page) {
	sc := page.Stages
	m.queries.Inc()
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
	m.querySeconds.Observe(float64(sc.TotalNanos) / 1e9)
	for i, ns := range [...]int64{sc.IndexNanos, sc.RegionNanos, sc.FilterNanos, sc.RankNanos} {
		m.stageSeconds[i].Observe(float64(ns) / 1e9)
	}
	m.candIndexed.Add(uint64(sc.Indexed))
	m.candRegion.Add(uint64(sc.Region))
	m.candNarrowed.Add(uint64(sc.Narrowed))
	m.candBounded.Add(uint64(sc.Bounded))
	m.candEvaluated.Add(uint64(sc.Evaluated))
	m.candPruned.Add(uint64(sc.Pruned))
	m.candHalf.Add(uint64(sc.HalfRefined))
}

// observeCommit counts one commit group's outcome; accepted == 0 means
// the group published nothing. Mutations (the histogram's sum, added
// before its count) go in before Largest, so a reader loading Largest,
// then Groups, then Mutations (commitStats) sees largest <= mutations
// and groups <= mutations. Callers hold db.mu, so Largest has one
// writer at a time and needs no compare-and-swap.
func (m *dbMetrics) observeCommit(accepted, rejected int) {
	m.rejected.Add(uint64(rejected))
	if accepted == 0 {
		return
	}
	m.batchSize.Observe(float64(accepted))
	if n := uint64(accepted); n > m.largest.Load() {
		m.largest.Store(n)
	}
}

// commitStats reads the group-commit counters in the order
// observeCommit's comment requires (a composite literal's calls run in
// lexical order).
func (m *dbMetrics) commitStats() CommitStats {
	return CommitStats{Largest: m.largest.Load(), Rejected: m.rejected.Value(),
		Groups: m.batchSize.Count(), Mutations: uint64(m.batchSize.Sum())}
}

// searchStats reads the filter-and-refine counters, the query count
// last (see observeQuery).
func (m *dbMetrics) searchStats() SearchStats {
	return SearchStats{Narrowed: m.candNarrowed.Value(), Bounded: m.candBounded.Value(),
		Evaluated: m.candEvaluated.Value(), Pruned: m.candPruned.Value(),
		CacheHits: m.cacheHits.Value(), CacheMisses: m.cacheMisses.Value(),
		Queries: m.queries.Value()}
}
