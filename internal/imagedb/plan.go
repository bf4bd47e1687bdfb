package imagedb

import "bestring/internal/core"

// This file names what the pipeline does with one query. Narrowing is
// one expression of merges over posting runs (postings.go) followed by
// per-candidate tests — the region is a box test, not an index probe — so
// there is one order to run it in. The one alternative, walking the scan
// columns instead of merging when the query's labels blanket the corpus,
// evaluates the Where clause on every entry rather than on the merge's
// output and measured 0.39–0.44x (EXPERIMENTS.md E23): nothing is left
// to choose by cost. planQuery therefore only bounds the narrowed set
// from run lengths — O(shards) per query label; the capacity of the
// candidate slice, and the "estimated" beside Stages.Indexed's "actual"
// — and names the steps, for explain output and the
// bestring_query_plan_total series.

// QueryPlan records how one query's candidate set was assembled, and the
// query's scorer-cache outcomes.
type QueryPlan struct {
	// Name identifies how the candidate set was assembled; one of
	// "fixed", "label-first", "scan" (bounded, so it is usable as a metric
	// label).
	Name string `json:"name"`
	// Order lists the executed pipeline steps in order, for -explain /
	// debug output.
	Order []string `json:"order"`
	// EstLabel is the planner's bound on the posting-run narrowing's
	// output (see narrowing.estimate), when the query narrows by labels;
	// Stages.Indexed is the actual.
	EstLabel int `json:"estLabel,omitempty"`
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

// Plan names: planLabelFirst when posting runs narrow the query,
// planScan when it has no label to narrow by (every entry is a
// candidate), planFixed for either under WithPlanner(false).
const (
	planFixed      = "fixed"
	planLabelFirst = "label-first"
	planScan       = "scan"
)

// planNames lists every plan name, so the metric series
// bestring_query_plan_total{plan=...} can be registered up front with
// bounded cardinality.
func planNames() []string {
	return []string{planFixed, planLabelFirst, planScan}
}

// regionMatches is the region filter: the image passes iff it holds an
// icon (with the label, when given) whose MBR intersects the region. The
// four integer compares go first: most icons are elsewhere.
func regionMatches(img *core.Image, region core.Rect, label string) bool {
	for i := range img.Objects {
		if o := &img.Objects[i]; o.Box.Intersects(region) && (label == "" || o.Label == label) {
			return true
		}
	}
	return false
}

// planQuery describes how one query's candidate set will be assembled
// against one pinned snapshot.
func planQuery(snap *snapshot, q *Query, nar *narrowing) *QueryPlan {
	plan := &QueryPlan{Name: planScan, Order: make([]string, 0, 4)}
	if nar.active() {
		plan.Name, plan.EstLabel = planLabelFirst, nar.estimate(snap)
		plan.Order = append(plan.Order, "labels")
	} else {
		plan.Order = append(plan.Order, "scan")
	}
	if q.noPlan {
		plan.Name = planFixed
	}
	if q.region != nil {
		plan.Order = append(plan.Order, "region")
	}
	if q.dsl != nil {
		plan.Order = append(plan.Order, "filter")
	}
	plan.Order = append(plan.Order, "rank")
	return plan
}
