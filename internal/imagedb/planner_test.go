package imagedb

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"bestring/internal/core"
	"bestring/internal/obs"
)

// pageKey is the result identity the byte-identity tests compare: the
// parts of a page a client consumes. Stages/Plan are deliberately
// excluded — they describe work, not results.
type pageKey struct {
	Hits   []Hit
	Total  int
	Cursor string
}

func pageID(t *testing.T, p *Page) string {
	t.Helper()
	j, err := json.Marshal(pageKey{p.Hits, p.Total, p.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestPlannerRankingByteIdentical pins the planner's correctness
// invariant: whatever plan a query is narrowed by, Hits, Total and
// NextCursor are byte-identical to the naive full-sort reference, across
// query compositions that exercise every plan, at several parallelism
// levels, including a full cursor walk.
func TestPlannerRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 424242, 80)
	img := g.SubsetQuery(g.Scene(), 4)

	tiny := core.NewRect(0, 0, 6, 6)
	broad := core.NewRect(0, 0, 100, 100) // contains every canvas
	mid := core.NewRect(10, 10, 80, 80)
	// Six-label clause: its postings cover (well over) 80% of the corpus.
	wide := "icon00 left-of icon01; icon02 left-of icon03; icon04 left-of icon05"
	const pair = "icon01 left-of icon02"
	// ranked and match complete a spec with its query image (or none) and
	// the default Where threshold.
	ranked := func(spec composedSpec) composedSpec {
		spec.image = &img
		if spec.whereMin == 0 {
			spec.whereMin = -1
		}
		return spec
	}
	match := func(spec composedSpec) composedSpec {
		spec.whereMin = -1
		return spec
	}

	cases := []struct {
		name string
		q    *Query
		opts []QueryOption
		spec composedSpec
	}{
		{"image", NewQuery(img), []QueryOption{WithK(10)}, ranked(composedSpec{k: 10})},
		{"image-prefilter", NewQuery(img), []QueryOption{WithK(10), WithLabelPrefilter(true)},
			ranked(composedSpec{k: 10, labelPrefilter: true})},
		{"image-prefilter-unbounded", NewQuery(img), []QueryOption{WithLabelPrefilter(true)},
			ranked(composedSpec{labelPrefilter: true})},
		{"image-tiny-region", NewQuery(img), []QueryOption{WithK(10), InRegion(tiny)},
			ranked(composedSpec{k: 10, region: &tiny})},
		{"image-tiny-region-prefilter", NewQuery(img), []QueryOption{WithK(10), InRegion(tiny), WithLabelPrefilter(true)},
			ranked(composedSpec{k: 10, region: &tiny, labelPrefilter: true})},
		{"image-broad-region", NewQuery(img), []QueryOption{WithK(10), InRegion(broad)},
			ranked(composedSpec{k: 10, region: &broad})},
		{"image-broad-region-label", NewQuery(img), []QueryOption{WithK(10), InRegionLabel(broad, "icon03")},
			ranked(composedSpec{k: 10, region: &broad, regionLabel: "icon03"})},
		{"image-mid-region", NewQuery(img), []QueryOption{WithK(10), InRegion(mid)},
			ranked(composedSpec{k: 10, region: &mid})},
		{"dsl", NewMatchQuery(), []QueryOption{WithK(10), Where(pair)},
			match(composedSpec{k: 10, dsl: pair})},
		{"dsl-wide", NewMatchQuery(), []QueryOption{WithK(10), Where(wide)},
			match(composedSpec{k: 10, dsl: wide})},
		{"dsl-tiny-region", NewMatchQuery(), []QueryOption{WithK(10), Where(pair), InRegion(tiny)},
			match(composedSpec{k: 10, dsl: pair, region: &tiny})},
		{"dsl-mid-region", NewMatchQuery(), []QueryOption{WithK(10), Where(wide), InRegion(mid)},
			match(composedSpec{k: 10, dsl: wide, region: &mid})},
		{"image-dsl-region", NewQuery(img), []QueryOption{WithK(10), Where(pair), WithWhereMin(0.5), InRegion(mid)},
			ranked(composedSpec{k: 10, dsl: pair, whereMin: 0.5, region: &mid})},
		{"region-only", NewMatchQuery(), []QueryOption{WithK(10), InRegion(tiny)},
			match(composedSpec{k: 10, region: &tiny})},
		{"min-score", NewQuery(img), []QueryOption{WithK(10), WithMinScore(0.4), InRegion(mid)},
			ranked(composedSpec{k: 10, minScore: 0.4, region: &mid})},
		{"offset", NewQuery(img), []QueryOption{WithK(5), WithOffset(7), InRegion(mid)},
			ranked(composedSpec{k: 5, offset: 7, region: &mid})},
		{"scorer-invariant", NewQuery(img), []QueryOption{WithK(10), WithScorer("invariant"), InRegion(tiny)},
			ranked(composedSpec{k: 10, scorer: InvariantScorer(nil), region: &tiny})},
	}
	for _, tc := range cases {
		for _, par := range []int{0, 1, 3} {
			page, err := db.Query(ctx, tc.q, append([]QueryOption{WithParallelism(par)}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			assertReference(t, fmt.Sprintf("case %s parallelism %d (plan %q)", tc.name, par, page.Plan.Name), db, page, tc.spec)
			if name := page.Plan.Name; name != planLabelFirst && name != planScan {
				t.Fatalf("case %s: plan %q is not one of %v", tc.name, name, planNames())
			}
			// With no score threshold every narrowed candidate is a result.
			if tc.spec.minScore == 0 && page.Stages.Narrowed != page.Total {
				t.Fatalf("case %s: Narrowed %d != Total %d", tc.name, page.Stages.Narrowed, page.Total)
			}
		}
	}

	// Full cursor walk through a region-filtered ranking.
	assertWalkMatchesReference(t, "cursor walk", db, ranked(composedSpec{k: 7, region: &mid}), func(cursor string) *Page {
		page, err := db.Query(ctx, NewQuery(img), WithK(7), InRegion(mid), WithCursor(cursor))
		if err != nil {
			t.Fatal(err)
		}
		return page
	})
}

// TestPlannerPlanChoices pins that the cost model actually picks the
// intended plans on workloads constructed to trigger each rule.
func TestPlannerPlanChoices(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 2025, 120)
	img := g.SubsetQuery(g.Scene(), 4)

	plan := func(q *Query, opts ...QueryOption) *QueryPlan {
		t.Helper()
		page, err := db.Query(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if page.Plan == nil {
			t.Fatal("no plan on page")
		}
		return page.Plan
	}

	// No narrowing input at all: plain ranked search scans.
	if p := plan(NewQuery(img), WithK(5)); p.Name != planScan {
		t.Fatalf("unfiltered image query chose %q, want scan", p.Name)
	}
	// A label to narrow by: the posting runs are merged, whatever the
	// region's size — a region is a per-candidate test, not a plan.
	for _, region := range []core.Rect{core.NewRect(0, 0, 4, 4), core.NewRect(0, 0, 100, 100)} {
		p := plan(NewQuery(img), WithK(5), InRegionLabel(region, "icon03"))
		if p.Name != planLabelFirst || p.EstLabel == 0 ||
			strings.Join(p.Order, " ") != "labels region rank" {
			t.Fatalf("labelled region %v chose %+v, want label-first (labels region rank)", region, p)
		}
	}
	// An unlabelled region has nothing to merge: the scan columns are
	// tested entry by entry.
	if p := plan(NewQuery(img), WithK(5), InRegion(core.NewRect(0, 0, 4, 4))); p.Name != planScan ||
		strings.Join(p.Order, " ") != "scan region rank" {
		t.Fatalf("unlabelled region chose %+v, want scan (scan region rank)", p)
	}
	// A selective clause: the estimate reads the pair's shorter run.
	p := plan(NewQuery(img), WithK(5), Where("icon00 contains icon01"))
	if p.Name != planLabelFirst || p.EstLabel == 0 || p.EstLabel >= db.Len() ||
		strings.Join(p.Order, " ") != "labels filter rank" {
		t.Fatalf("selective clause chose %+v, want label-first (labels filter rank) with an estimate below the corpus", p)
	}
	// A clause whose labels blanket the corpus is still narrowed by its
	// runs: skipping them for a scan measured 0.39–0.44x (EXPERIMENTS E23).
	wide := "icon00 left-of icon01; icon02 left-of icon03; icon04 left-of icon05; icon06 left-of icon07"
	if p := plan(NewMatchQuery(), WithK(5), Where(wide)); p.Name != planLabelFirst {
		t.Fatalf("blanket-label clause chose %+v, want label-first", p)
	}
}

// TestPlannerAndCacheMetrics pins the /metrics series: exactly the two
// plan series (label-first, scan) are visible at registration time, the
// chosen plan is counted, and the scorer-cache counters and gauges move.
func TestPlannerAndCacheMetrics(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 55, 40)
	img := g.SubsetQuery(g.Scene(), 3)

	reg := obs.NewRegistry()
	db.EnableMetrics(reg)

	render := func() string {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	// Exactly the two plan series, visible before any traffic.
	text := render()
	if got := strings.Count(text, "\nbestring_query_plan_total{plan="); got != 2 {
		t.Fatalf("%d plan series pre-registered, want 2 (label-first, scan):\n%s", got, text)
	}
	for _, name := range []string{"label-first", "scan"} {
		if !strings.Contains(text, fmt.Sprintf(`bestring_query_plan_total{plan=%q} 0`, name)) {
			t.Fatalf("plan series %q not pre-registered:\n%s", name, text)
		}
	}
	for _, series := range []string{
		"bestring_scorer_cache_hits_total",
		"bestring_scorer_cache_misses_total",
		"bestring_scorer_cache_evictions_total",
		"bestring_scorer_cache_entries",
		"bestring_scorer_cache_bypassed_total",
		"bestring_label_dict_labels",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("series %q missing from exposition", series)
		}
	}

	// Run the same cacheable query three times: one scan plan counted per
	// run; the first sighting bypasses the cache, the second misses and
	// fills it, the third hits.
	for i, want := range []struct {
		bypassed     bool
		misses, hits bool
	}{{bypassed: true}, {misses: true}, {hits: true}} {
		page, err := db.Query(ctx, NewQuery(img))
		if err != nil {
			t.Fatal(err)
		}
		p := page.Plan
		if p.CacheBypassed != want.bypassed || (p.CacheMisses > 0) != want.misses || (p.CacheHits > 0) != want.hits {
			t.Fatalf("run %d: plan %+v, want bypassed=%v misses=%v hits=%v", i+1, p, want.bypassed, want.misses, want.hits)
		}
	}
	text = render()
	if !strings.Contains(text, `bestring_query_plan_total{plan="scan"} 3`) {
		t.Fatalf("scan plan not counted:\n%s", text)
	}
	if !strings.Contains(text, "bestring_scorer_cache_bypassed_total 1\n") {
		t.Fatalf("first-sighting bypass not counted once:\n%s", text)
	}
	if strings.Contains(text, "bestring_scorer_cache_hits_total 0\n") {
		t.Fatalf("no cache hits recorded on a repeated query:\n%s", text)
	}
	if strings.Contains(text, "bestring_scorer_cache_misses_total 0\n") {
		t.Fatalf("no cache misses recorded on a cold query:\n%s", text)
	}
	if strings.Contains(text, "bestring_scorer_cache_entries 0\n") {
		t.Fatalf("cache occupancy gauge did not move:\n%s", text)
	}
}
