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
// invariant: whatever plan the cost model picks, Hits, Total and
// NextCursor are byte-identical to the fixed label→region→predicate
// order, across query compositions that exercise every plan, at several
// parallelism levels, including full cursor walks.
func TestPlannerRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 424242, 80)
	img := g.SubsetQuery(g.Scene(), 4)

	tiny := core.NewRect(0, 0, 6, 6)
	broad := core.NewRect(0, 0, 100, 100) // contains every canvas
	mid := core.NewRect(10, 10, 80, 80)
	// Six-label clause: postings cover (well over) 80% of the corpus, so
	// the planner goes for a scan.
	wide := "icon00 left-of icon01; icon02 left-of icon03; icon04 left-of icon05"

	cases := []struct {
		name string
		q    *Query
		opts []QueryOption
	}{
		{"image", NewQuery(img), []QueryOption{WithK(10)}},
		{"image-prefilter", NewQuery(img), []QueryOption{WithK(10), WithLabelPrefilter(true)}},
		{"image-prefilter-unbounded", NewQuery(img), []QueryOption{WithLabelPrefilter(true)}},
		{"image-tiny-region", NewQuery(img), []QueryOption{WithK(10), InRegion(tiny)}},
		{"image-tiny-region-prefilter", NewQuery(img), []QueryOption{WithK(10), InRegion(tiny), WithLabelPrefilter(true)}},
		{"image-broad-region", NewQuery(img), []QueryOption{WithK(10), InRegion(broad)}},
		{"image-broad-region-label", NewQuery(img), []QueryOption{WithK(10), InRegionLabel(broad, "icon03")}},
		{"image-mid-region", NewQuery(img), []QueryOption{WithK(10), InRegion(mid)}},
		{"dsl", NewMatchQuery(), []QueryOption{WithK(10), Where("icon01 left-of icon02")}},
		{"dsl-wide", NewMatchQuery(), []QueryOption{WithK(10), Where(wide)}},
		{"dsl-tiny-region", NewMatchQuery(), []QueryOption{WithK(10), Where("icon01 left-of icon02"), InRegion(tiny)}},
		{"dsl-mid-region", NewMatchQuery(), []QueryOption{WithK(10), Where(wide), InRegion(mid)}},
		{"image-dsl-region", NewQuery(img), []QueryOption{WithK(10), Where("icon01 left-of icon02"), WithWhereMin(0.5), InRegion(mid)}},
		{"region-only", NewMatchQuery(), []QueryOption{WithK(10), InRegion(tiny)}},
		{"min-score", NewQuery(img), []QueryOption{WithK(10), WithMinScore(0.4), InRegion(mid)}},
		{"offset", NewQuery(img), []QueryOption{WithK(5), WithOffset(7), InRegion(mid)}},
		{"scorer-invariant", NewQuery(img), []QueryOption{WithK(10), WithScorer("invariant"), InRegion(tiny)}},
	}
	// Two passes so the second sees warmed shape statistics (plans may
	// change between passes; results must not).
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			for _, par := range []int{0, 1, 3} {
				base := append([]QueryOption{WithParallelism(par)}, tc.opts...)
				on, err := db.Query(ctx, tc.q, append(base, WithPlanner(true))...)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				off, err := db.Query(ctx, tc.q, append(base, WithPlanner(false))...)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if gj, wj := pageID(t, on), pageID(t, off); gj != wj {
					t.Fatalf("pass %d case %s parallelism %d (plan %q): planner ranking diverged\n  on: %s\n off: %s",
						pass, tc.name, par, on.Plan.Name, gj, wj)
				}
				if off.Plan == nil || off.Plan.Name != planFixed {
					t.Fatalf("case %s: planner-off page reports plan %+v, want fixed", tc.name, off.Plan)
				}
				if on.Stages.Narrowed != off.Stages.Narrowed {
					t.Fatalf("case %s: Narrowed is plan-variant: %d vs %d", tc.name, on.Stages.Narrowed, off.Stages.Narrowed)
				}
			}
		}
	}

	// Full cursor walk under each planner setting, resuming pages across
	// plan decisions.
	walk := func(planner bool) string {
		var all []Hit
		cursor := ""
		for {
			opts := []QueryOption{WithK(7), WithPlanner(planner), InRegion(mid)}
			if cursor != "" {
				opts = append(opts, WithCursor(cursor))
			}
			page, err := db.Query(ctx, NewQuery(img), opts...)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, page.Hits...)
			if page.NextCursor == "" {
				j, _ := json.Marshal(all)
				return string(j)
			}
			cursor = page.NextCursor
		}
	}
	if on, off := walk(true), walk(false); on != off {
		t.Fatalf("cursor walk diverged:\n  on: %s\n off: %s", on, off)
	}
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
	if p.Name != planLabelFirst || p.EstLabel == 0 || p.EstLabel >= db.Len() {
		t.Fatalf("selective clause chose %+v, want label-first with an estimate below the corpus", p)
	}
	// A clause whose labels blanket the corpus is still narrowed by its
	// runs: skipping them for a scan measured 0.39–0.44x (EXPERIMENTS E23).
	wide := "icon00 left-of icon01; icon02 left-of icon03; icon04 left-of icon05; icon06 left-of icon07"
	if p := plan(NewMatchQuery(), WithK(5), Where(wide)); p.Name != planLabelFirst {
		t.Fatalf("blanket-label clause chose %+v, want label-first", p)
	}
	// The planner off: the same steps under the name "fixed".
	if p := plan(NewQuery(img), WithK(5), Where("icon00 contains icon01"), WithPlanner(false)); p.Name != planFixed ||
		strings.Join(p.Order, " ") != "labels filter rank" {
		t.Fatalf("planner-off query reports %+v, want fixed (labels filter rank)", p)
	}
}

// TestPlannerAndCacheMetrics pins the new /metrics series: every plan
// series is visible at registration time, the chosen plan is counted,
// and the scorer-cache counters and gauges move.
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

	// All plan series visible before any traffic.
	text := render()
	for _, name := range planNames() {
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
