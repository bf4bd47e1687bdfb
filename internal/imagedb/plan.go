package imagedb

import (
	"sync"

	"bestring/internal/core"
)

// This file is the cost-based query planner. Before the pipeline touches
// a single entry, planQuery estimates how selective each narrowing stage
// would be — from statistics a pinned snapshot answers in O(shards ×
// labels): inverted-index posting sizes, the query region's area against
// the R-tree's corpus bounds, and a decaying table of historical
// predicate pass-rates per query shape — and reorders or skips stages so
// the cheapest discriminating one runs first (the short-cut-evaluation
// idea of the Wang-algebra line of work, applied to retrieval stages).
//
// Correctness invariant: every plan assembles EXACTLY the candidate set
// the fixed label→region→predicate order assembles, so Hits, Total and
// NextCursor are byte-identical whatever the planner picks (pinned by
// TestPlannerRankingByteIdentical). The equivalences:
//
//   - region-first: L ∩ R computed as "probe R, keep members of L"
//     instead of "collect L, keep members of R" — same intersection.
//   - scan (label narrowing skipped): a Where clause's evaluation drops
//     every image containing none of its labels (all constraints
//     unsatisfied ⇒ fraction 0), which is precisely what the postings
//     union pre-filtered; an image-only LabelPrefilter is re-applied as
//     an inline membership check. Either way the survivors match.
//   - filter-first: the region filter is a per-image geometric check —
//     "has an icon (optionally with the region label) whose MBR
//     intersects the region" — exactly the predicate the R-tree probe
//     answers, so applying it after the Where filter instead of before
//     keeps the same final set.
//   - skipped region: when the region contains the corpus bounds, every
//     indexed icon MBR intersects it; with no region label the filter
//     cannot drop any image (validated images hold ≥ 1 icon), and with
//     one it degenerates to "contains an icon with that label", an
//     inverted-index membership test.
type QueryPlan struct {
	// Name identifies the chosen stage order; one of "fixed",
	// "label-first", "region-first", "filter-first", "scan" (bounded, so
	// it is usable as a metric label).
	Name string `json:"name"`
	// Order lists the executed pipeline steps in plan order, for
	// -explain / debug output.
	Order []string `json:"order"`
	// SkippedLabels reports that the postings-union label narrowing was
	// skipped because the query's labels cover most of the corpus.
	SkippedLabels bool `json:"skippedLabels,omitempty"`
	// SkippedRegion reports that the R-tree probe was skipped because
	// the query region contains the corpus bounds.
	SkippedRegion bool `json:"skippedRegion,omitempty"`
	// EstLabel is the planner's candidate estimate for the label
	// narrowing (posting-size sum, clamped to the corpus), when the
	// query narrows by labels.
	EstLabel int `json:"estLabel,omitempty"`
	// EstRegion is the planner's candidate estimate for the region
	// filter (corpus size × region area over corpus-bounds area), when
	// the query has a region.
	EstRegion int `json:"estRegion,omitempty"`
	// EstFilterRate is the decayed historical pass-rate of this query
	// shape's Where clause (1 when unseen).
	EstFilterRate float64 `json:"estFilterRate,omitempty"`
	// CacheHits / CacheMisses count this query's scorer-cache outcomes
	// (both zero when the query is not cacheable or the cache is off).
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
	// CacheBypassed reports that the query was cacheable but did not
	// consult the scorer cache because its key had not been sighted
	// before: the cache admits a query from its second run on, so a
	// one-off query costs it nothing.
	CacheBypassed bool `json:"cacheBypassed,omitempty"`
}

// Plan names. planFixed is the planner-off order (label → region →
// predicate, always); the others are chosen by cost.
const (
	planFixed       = "fixed"
	planLabelFirst  = "label-first"
	planRegionFirst = "region-first"
	planFilterFirst = "filter-first"
	planScan        = "scan"
)

// planNames lists every plan the planner can emit, so the metric series
// bestring_query_plan_total{plan=...} can be registered up front with
// bounded cardinality.
func planNames() []string {
	return []string{planFixed, planLabelFirst, planRegionFirst, planFilterFirst, planScan}
}

// Planner thresholds. They trade estimation cost against mis-planning
// cost: estimates are approximations (posting sums double-count images
// sharing several query labels; the region estimate assumes uniform
// density), so reordering only fires when the estimated advantage is
// large enough that an estimate off by the typical factor still wins.
const (
	// labelSkipFraction skips the postings-union narrowing when the
	// query labels' postings cover at least this fraction of the corpus
	// — the union would rebuild nearly the whole entry set.
	labelSkipFraction = 0.8
	// regionFirstFraction probes the R-tree first when the estimated
	// region candidates are below this fraction of the label path's.
	regionFirstFraction = 0.25
	// filterFirstFraction defers a broad region filter until after the
	// Where clause when the estimated predicate survivors are below this
	// fraction of the estimated region candidates.
	filterFirstFraction = 0.25
)

// execPlan is the planner's full decision: the public QueryPlan recorded
// on the Page plus the private switches the pipeline executes.
type execPlan struct {
	Plan *QueryPlan

	regionFirst  bool // probe the R-tree before any label work
	filterFirst  bool // run the Where clause before the region filter
	skipLabels   bool // skip the postings union (scan + recover inline)
	skipRegion   bool // region ⊇ corpus bounds, no label: filter is a no-op
	regionMember bool // region ⊇ corpus bounds with a label: membership test
}

// estimateLabelCandidates sums the query labels' posting sizes across
// shards — an O(shards × labels) upper estimate of the postings union
// (images holding several query labels count once per label), clamped to
// the corpus size.
func (s *snapshot) estimateLabelCandidates(labels []string) int {
	sum := 0
	for _, sv := range s.shards {
		for _, l := range labels {
			sum += len(sv.labels[l])
		}
	}
	if sum > s.count {
		sum = s.count
	}
	return sum
}

// estimateRegionCandidates scales the corpus size by the fraction of the
// R-tree bounds' area the query region covers (uniform-density
// assumption; degenerate zero-extent axes count as fully covered when
// intersected at all). Returns 0 for an empty tree or a disjoint region.
func estimateRegionCandidates(region, bounds core.Rect, count int) int {
	if !region.Intersects(bounds) {
		return 0
	}
	axisFrac := func(r0, r1, b0, b1 int) float64 {
		span := float64(b1 - b0)
		if span <= 0 {
			return 1
		}
		lo, hi := max(r0, b0), min(r1, b1)
		return float64(hi-lo) / span
	}
	frac := axisFrac(region.X0, region.X1, bounds.X0, bounds.X1) *
		axisFrac(region.Y0, region.Y1, bounds.Y0, bounds.Y1)
	est := int(frac * float64(count))
	if est < 1 {
		est = 1 // it intersects, so at least one icon may match
	}
	if est > count {
		est = count
	}
	return est
}

// hasAnyLabel reports whether the image holds at least one of the given
// icon labels, by inverted-index membership (no entry deref).
func (s *snapshot) hasAnyLabel(id string, labels []string) bool {
	sv := s.shardFor(id)
	for _, l := range labels {
		if sv.labels[l][id] {
			return true
		}
	}
	return false
}

// regionMatches is the direct geometric form of the region filter: the
// image passes iff it holds an icon (with the label, when given) whose
// MBR intersects the region — exactly the set the R-tree probe keeps,
// evaluated per image instead of per tree. filter-first plans use it on
// Where-clause survivors so a broad region never pays a full probe.
func regionMatches(img *core.Image, region core.Rect, label string) bool {
	for _, o := range img.Objects {
		if (label == "" || o.Label == label) && o.Box.Intersects(region) {
			return true
		}
	}
	return false
}

// planQuery chooses the stage order for one query against one pinned
// snapshot. labels/prefilter are the stage-1 inputs executeOn derived
// from the spec; shapes may be nil (no history: pass-rate defaults to 1).
func planQuery(snap *snapshot, q *Query, labels []string, prefilter bool, shapes *shapeStats) execPlan {
	count := snap.count
	hasRegion := q.region != nil
	p := execPlan{Plan: &QueryPlan{Name: planLabelFirst}}

	if q.noPlan {
		p.Plan.Name = planFixed
		p.Plan.Order = fixedOrder(q, prefilter)
		return p
	}

	estLabel := count
	if prefilter {
		estLabel = snap.estimateLabelCandidates(labels)
		p.Plan.EstLabel = estLabel
	}
	passRate := 1.0
	if q.dsl != nil && shapes != nil {
		passRate = shapes.rate(q.dsl.String())
		p.Plan.EstFilterRate = passRate
	}

	estRegion := count
	if hasRegion {
		if bounds, ok := snap.spatial.Bounds(); !ok {
			estRegion = 0
		} else if q.region.Contains(bounds) {
			if q.regionLabel == "" {
				p.skipRegion = true
				p.Plan.SkippedRegion = true
			} else {
				p.regionMember = true
				estRegion = snap.estimateLabelCandidates([]string{q.regionLabel})
			}
		} else {
			estRegion = estimateRegionCandidates(*q.region, bounds, count)
		}
		p.Plan.EstRegion = estRegion
	}

	if prefilter && count > 0 && float64(estLabel) >= labelSkipFraction*float64(count) {
		p.skipLabels = true
		p.Plan.SkippedLabels = true
	}
	base := count
	if prefilter && !p.skipLabels {
		base = estLabel
	}

	probe := hasRegion && !p.skipRegion && !p.regionMember
	switch {
	case probe && float64(estRegion) < regionFirstFraction*float64(base):
		// The region set is estimated much smaller than anything the
		// label side produces: probe it first and recover the label
		// narrowing as a membership filter over the (small) region set.
		p.regionFirst = true
		p.skipLabels = false
		p.Plan.SkippedLabels = false
		p.Plan.Name = planRegionFirst
	case probe && q.dsl != nil && float64(base)*passRate < filterFirstFraction*float64(estRegion):
		// The Where clause historically keeps few survivors while the
		// region is broad: evaluate the predicate first and region-check
		// only its survivors geometrically, skipping the expensive probe.
		p.filterFirst = true
		p.Plan.Name = planFilterFirst
	case p.skipLabels || !prefilter:
		p.Plan.Name = planScan
	}

	p.Plan.Order = p.order(q, prefilter)
	return p
}

// fixedOrder renders the planner-off stage order for explain output.
func fixedOrder(q *Query, prefilter bool) []string {
	order := make([]string, 0, 4)
	if prefilter {
		order = append(order, "labels")
	} else {
		order = append(order, "scan")
	}
	if q.region != nil {
		order = append(order, "region")
	}
	if q.dsl != nil {
		order = append(order, "filter")
	}
	return append(order, "rank")
}

// order renders the chosen plan's executed steps, in order.
func (p *execPlan) order(q *Query, prefilter bool) []string {
	order := make([]string, 0, 4)
	region := func() {
		switch {
		case q.region == nil || p.skipRegion:
		case p.regionMember:
			order = append(order, "region-member")
		default:
			order = append(order, "region")
		}
	}
	switch {
	case p.regionFirst:
		order = append(order, "region")
		if prefilter {
			order = append(order, "labels")
		}
		if q.dsl != nil {
			order = append(order, "filter")
		}
	case p.filterFirst:
		if prefilter && !p.skipLabels {
			order = append(order, "labels")
		} else {
			order = append(order, "scan")
		}
		if q.dsl != nil {
			order = append(order, "filter")
		}
		order = append(order, "region")
	default:
		if prefilter && !p.skipLabels {
			order = append(order, "labels")
		} else {
			order = append(order, "scan")
		}
		region()
		if q.dsl != nil {
			order = append(order, "filter")
		}
	}
	return append(order, "rank")
}

// shapeStats is the decaying per-query-shape predicate pass-rate table:
// after each executed query with a Where clause, the observed fraction
// of candidates the clause kept is folded into an exponentially weighted
// moving average keyed by the clause's canonical rendering. The table is
// bounded; when full, an arbitrary entry is evicted (shapes are a small,
// recurring population in practice, so churn is rare).
type shapeStats struct {
	mu    sync.Mutex
	rates map[string]float64
}

// shapeStatsCap bounds the pass-rate table.
const shapeStatsCap = 256

// shapeDecay is the weight of the newest observation in the EWMA.
const shapeDecay = 0.2

// rate returns the decayed pass-rate estimate for a query shape, 1 when
// the shape has no history (assume the filter keeps everything until
// proven selective — the conservative direction for plan choice).
func (s *shapeStats) rate(shape string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.rates[shape]; ok {
		return r
	}
	return 1
}

// note folds one observed pass-rate into the shape's EWMA.
func (s *shapeStats) note(shape string, observed float64) {
	if observed < 0 {
		observed = 0
	} else if observed > 1 {
		observed = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rates == nil {
		s.rates = make(map[string]float64, 16)
	}
	if r, ok := s.rates[shape]; ok {
		s.rates[shape] = (1-shapeDecay)*r + shapeDecay*observed
		return
	}
	if len(s.rates) >= shapeStatsCap {
		for k := range s.rates {
			delete(s.rates, k)
			break
		}
	}
	s.rates[shape] = observed
}
