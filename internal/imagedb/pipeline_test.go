package imagedb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"bestring/internal/core"
	"bestring/internal/query"
	"bestring/internal/workload"
)

// composedSpec parameterises the serial reference below.
type composedSpec struct {
	image       *core.Image
	dsl         string
	whereMin    float64 // <0 means pipeline default
	region      *core.Rect
	regionLabel string
	scorer      Scorer
	minScore    float64
	k, offset   int
	cursor      *cursorPos // resume position: admit only strictly worse results
}

// referenceComposed is the filter-then-full-sort reference: apply every
// filter serially per image, score everything that survives, sort
// everything, then paginate. The pipeline must match it byte for byte.
func referenceComposed(t *testing.T, db *DB, spec composedSpec) []Hit {
	t.Helper()
	return referencePage(t, db, spec).Hits
}

// referencePage is referenceComposed with the page's Total and
// NextCursor as well.
func referencePage(t *testing.T, db *DB, spec composedSpec) pageKey {
	t.Helper()
	var dq query.Query
	if spec.dsl != "" {
		var err error
		if dq, err = query.Parse(spec.dsl); err != nil {
			t.Fatalf("parse %q: %v", spec.dsl, err)
		}
	}
	whereMin := spec.whereMin
	if whereMin < 0 {
		if spec.image != nil {
			whereMin = 1
		} else {
			whereMin = 0
		}
	}
	scorer := spec.scorer
	if scorer == nil {
		scorer = BEScorer()
	}
	var queryBE core.BEString
	if spec.image != nil {
		queryBE = core.MustConvert(*spec.image)
	}
	var all []Hit
	for _, id := range db.IDs() {
		e, _ := db.Get(id)
		if spec.region != nil {
			found := false
			for _, o := range e.Image.Objects {
				if o.Box.Intersects(*spec.region) &&
					(spec.regionLabel == "" || o.Label == spec.regionLabel) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		h := Hit{ID: e.ID, Name: e.Name}
		if spec.dsl != "" {
			frac, full := dq.Eval(e.Image)
			if frac <= 0 || frac < whereMin {
				continue
			}
			h.Where, h.Full = frac, full
		}
		switch {
		case spec.image != nil:
			h.Score = scorer(*spec.image, queryBE, e)
		case spec.dsl != "":
			h.Score = h.Where
		}
		if h.Score < spec.minScore {
			continue
		}
		if c := spec.cursor; c != nil && !worse(Result{ID: h.ID, Score: h.Score}, Result{ID: c.ID, Score: c.Score}) {
			continue
		}
		all = append(all, h)
	}
	total := len(all)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if spec.offset >= len(all) {
		all = all[:0]
	} else {
		all = all[spec.offset:]
	}
	if spec.k > 0 && len(all) > spec.k {
		all = all[:spec.k]
	}
	page := pageKey{Hits: all, Total: total}
	if spec.k > 0 && len(all) == spec.k && total > spec.offset+spec.k {
		last := all[len(all)-1]
		page.Cursor = encodeCursor(Result{ID: last.ID, Score: last.Score}, db.Epoch())
	}
	return page
}

// seedSpatial builds a deterministic corpus where filters have known
// selectivity: every image gets random icons, every third image gets a
// "tag left-of anchor" pair (satisfying the DSL below), and every fourth
// gets an icon inside the probe region.
func seedSpatial(t *testing.T, shards, n int) *DB {
	t.Helper()
	db := NewSharded(shards)
	g := workload.NewGenerator(workload.Config{Seed: 17, Vocabulary: 12, Width: 64, Height: 64})
	for i := 0; i < n; i++ {
		img := g.Scene()
		if i%3 == 0 {
			img = img.WithObject(core.Object{Label: "tag", Box: core.NewRect(1, 1, 3, 3)}).
				WithObject(core.Object{Label: "anchor", Box: core.NewRect(10, 1, 12, 3)})
		}
		if i%4 == 0 {
			img = img.WithObject(core.Object{Label: "probe", Box: core.NewRect(50, 50, 55, 55)})
		}
		if err := db.Insert(fmt.Sprintf("img%03d", i), fmt.Sprintf("scene %d", i), img); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return db
}

var probeRegion = core.NewRect(48, 48, 60, 60)

func hitsEqual(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || string(gj) != string(wj) {
		t.Fatalf("%s:\n got %s\nwant %s", label, gj, wj)
	}
}

// TestQueryMatchesComposedReference pins the filter-composition
// guarantee: narrowing with indexes then scoring survivors must be
// byte-identical to filtering serially and full-sorting, for every
// combination of image, Where clause and region.
func TestQueryMatchesComposedReference(t *testing.T) {
	db := seedSpatial(t, 4, 60)
	g := workload.NewGenerator(workload.Config{Seed: 18, Vocabulary: 12, Width: 64, Height: 64})
	img := g.Scene()
	const dsl = "tag left-of anchor"

	cases := []struct {
		name string
		spec composedSpec
		q    *Query
		opts []QueryOption
	}{
		{"image-only", composedSpec{image: &img, k: 7, whereMin: -1},
			NewQuery(img), []QueryOption{WithK(7)}},
		{"image+dsl", composedSpec{image: &img, dsl: dsl, k: 10, whereMin: -1},
			NewQuery(img), []QueryOption{WithK(10), Where(dsl)}},
		{"image+region", composedSpec{image: &img, region: &probeRegion, k: 10, whereMin: -1},
			NewQuery(img), []QueryOption{WithK(10), InRegion(probeRegion)}},
		{"image+dsl+region", composedSpec{image: &img, dsl: dsl, region: &probeRegion, whereMin: -1},
			NewQuery(img), []QueryOption{Where(dsl), InRegion(probeRegion)}},
		{"image+dsl+region+k", composedSpec{image: &img, dsl: dsl, region: &probeRegion, k: 2, whereMin: -1},
			NewQuery(img), []QueryOption{WithK(2), Where(dsl), InRegion(probeRegion)}},
		{"image+dsl+minscore", composedSpec{image: &img, dsl: dsl, minScore: 0.3, whereMin: -1},
			NewQuery(img), []QueryOption{Where(dsl), WithMinScore(0.3)}},
		{"image+dsl+wheremin", composedSpec{image: &img, dsl: dsl + "; tag above anchor", whereMin: 0.5},
			NewQuery(img), []QueryOption{Where(dsl + "; tag above anchor"), WithWhereMin(0.5)}},
		{"dsl-only", composedSpec{dsl: dsl, whereMin: -1},
			NewMatchQuery(), []QueryOption{Where(dsl)}},
		{"region-only", composedSpec{region: &probeRegion, whereMin: -1},
			NewMatchQuery(), []QueryOption{InRegion(probeRegion)}},
		{"region-label", composedSpec{region: &probeRegion, regionLabel: "probe", whereMin: -1},
			NewMatchQuery(), []QueryOption{InRegionLabel(probeRegion, "probe")}},
		{"image+offset", composedSpec{image: &img, k: 5, offset: 8, whereMin: -1},
			NewQuery(img), []QueryOption{WithK(5), WithOffset(8)}},
		{"invariant-scorer", composedSpec{image: &img, scorer: InvariantScorer(nil), k: 6, whereMin: -1},
			NewQuery(img), []QueryOption{WithK(6), WithScorer("invariant")}},
	}
	for _, tc := range cases {
		for _, parallelism := range []int{0, 1, 3} {
			opts := append([]QueryOption{WithParallelism(parallelism)}, tc.opts...)
			page, err := db.Query(context.Background(), tc.q, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want := referenceComposed(t, db, tc.spec)
			if want == nil {
				want = []Hit{}
			}
			hitsEqual(t, fmt.Sprintf("%s (parallelism %d)", tc.name, parallelism), page.Hits, want)
		}
	}
}

// TestDeprecatedWrappersByteIdentical pins the acceptance criterion:
// Search, SearchDSL and SearchRegion are wrappers over the pipeline and
// must produce byte-identical results to querying it directly.
func TestDeprecatedWrappersByteIdentical(t *testing.T) {
	ctx := context.Background()
	db := seedSpatial(t, 3, 45)
	g := workload.NewGenerator(workload.Config{Seed: 19, Vocabulary: 12, Width: 64, Height: 64})
	img := g.Scene()

	for _, opts := range []SearchOptions{
		{}, {K: 5}, {K: 5, MinScore: 0.4}, {K: 3, Parallelism: 2, LabelPrefilter: true},
		{Scorer: InvariantScorer(nil), K: 4},
	} {
		old, err := db.Search(ctx, img, opts)
		if err != nil {
			t.Fatal(err)
		}
		qopts := []QueryOption{WithK(opts.K), WithMinScore(opts.MinScore),
			WithParallelism(opts.Parallelism), WithLabelPrefilter(opts.LabelPrefilter)}
		if opts.Scorer != nil {
			qopts = append(qopts, WithScorerFunc(opts.Scorer))
		}
		page, err := db.Query(ctx, NewQuery(img), qopts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(old) != len(page.Hits) {
			t.Fatalf("opts %+v: wrapper %d results, pipeline %d", opts, len(old), len(page.Hits))
		}
		for i, r := range old {
			h := page.Hits[i]
			if r != (Result{ID: h.ID, Name: h.Name, Score: h.Score}) {
				t.Fatalf("opts %+v: result %d = %+v, hit %+v", opts, i, r, h)
			}
		}
		oj, _ := json.Marshal(old)
		rj, _ := json.Marshal(referenceSearch(db, img, opts))
		if !opts.LabelPrefilter && string(oj) != string(rj) {
			t.Fatalf("opts %+v: wrapper diverged from full-sort reference\n got %s\nwant %s", opts, oj, rj)
		}
	}

	dq, err := query.Parse("tag left-of anchor")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 3, 100} {
		old, err := db.SearchDSL(ctx, dq, k)
		if err != nil {
			t.Fatal(err)
		}
		page, err := db.Query(ctx, NewMatchQuery(), WhereQuery(dq), WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(old) != len(page.Hits) {
			t.Fatalf("k=%d: wrapper %d results, pipeline %d", k, len(old), len(page.Hits))
		}
		for i, r := range old {
			h := page.Hits[i]
			if r != (QueryResult{ID: h.ID, Name: h.Name, Score: h.Score, Full: h.Full}) {
				t.Fatalf("k=%d: result %d = %+v, hit %+v", k, i, r, h)
			}
		}
	}

	hits := db.SearchRegion(probeRegion, "probe")
	page, err := db.Query(ctx, NewMatchQuery(), InRegionLabel(probeRegion, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, h := range hits {
		ids[h.ImageID] = true
	}
	if len(ids) != len(page.Hits) {
		t.Fatalf("region wrapper found %d images, pipeline %d", len(ids), len(page.Hits))
	}
	for i, h := range page.Hits {
		if !ids[h.ID] {
			t.Fatalf("pipeline hit %q not in wrapper results", h.ID)
		}
		if i > 0 && page.Hits[i-1].ID >= h.ID {
			t.Fatalf("region-only hits not in id order: %v", page.Hits)
		}
	}
}

// TestQueryCursorPagination walks the full ranking page by page and
// checks the concatenation equals the one-shot ranking, with Total
// constant and the cursor chain terminating.
func TestQueryCursorPagination(t *testing.T) {
	ctx := context.Background()
	db := seedSpatial(t, 4, 37)
	g := workload.NewGenerator(workload.Config{Seed: 20, Vocabulary: 12, Width: 64, Height: 64})
	img := g.Scene()
	q := NewQuery(img)

	full, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != 37 || len(full.Hits) != 37 || full.NextCursor != "" {
		t.Fatalf("full page: total %d, %d hits, cursor %q", full.Total, len(full.Hits), full.NextCursor)
	}

	var walked []Hit
	cursor := ""
	pages := 0
	for {
		page, err := db.Query(ctx, q, WithK(5), WithCursor(cursor))
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Hits...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 20 {
			t.Fatal("cursor chain does not terminate")
		}
	}
	if pages != 8 { // ceil(37/5)
		t.Errorf("walked %d pages, want 8", pages)
	}
	hitsEqual(t, "cursor walk", walked, full.Hits)

	// Offset pagination slices the same ranking.
	page, err := db.Query(ctx, q, WithK(10), WithOffset(30))
	if err != nil {
		t.Fatal(err)
	}
	hitsEqual(t, "offset page", page.Hits, full.Hits[30:])
	if page.Total != 37 {
		t.Errorf("offset page total = %d, want 37", page.Total)
	}
	// Offset past the end is an empty page, not an error.
	page, err = db.Query(ctx, q, WithK(10), WithOffset(99))
	if err != nil || len(page.Hits) != 0 || page.NextCursor != "" {
		t.Errorf("offset past end: %v, %+v", err, page)
	}
}

// TestQueryCursorStableUnderInserts pins the pagination-stability
// contract: entries inserted between pages never cause already-delivered
// results to reappear, and the next page still delivers exactly the
// pre-existing ranking tail.
func TestQueryCursorStableUnderInserts(t *testing.T) {
	ctx := context.Background()
	db := seedSpatial(t, 4, 24)
	g := workload.NewGenerator(workload.Config{Seed: 21, Vocabulary: 12, Width: 64, Height: 64})
	img := g.Scene()
	q := NewQuery(img)

	before, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := db.Query(ctx, q, WithK(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Hits) != 6 || page1.NextCursor == "" {
		t.Fatalf("page1 = %+v", page1)
	}

	// Concurrent writers land entries that would rank first (exact
	// copies of the query image, score 1.0).
	for i := 0; i < 3; i++ {
		if err := db.Insert(fmt.Sprintf("interloper%d", i), "", img); err != nil {
			t.Fatal(err)
		}
	}

	page2, err := db.Query(ctx, q, WithK(6), WithCursor(page1.NextCursor))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, h := range page1.Hits {
		seen[h.ID] = true
	}
	for _, h := range page2.Hits {
		if seen[h.ID] {
			t.Fatalf("page2 repeats %q", h.ID)
		}
		if strings.HasPrefix(h.ID, "interloper") {
			t.Fatalf("page2 contains post-cursor insert %q ranking before the boundary", h.ID)
		}
	}
	hitsEqual(t, "page2 is the pre-insert tail", page2.Hits, before.Hits[6:12])
}

// TestQueryIterStreamsRanking checks the iterator yields exactly the
// one-shot ranking (across internal batch boundaries), honours WithK,
// and stops on early break.
func TestQueryIterStreamsRanking(t *testing.T) {
	ctx := context.Background()
	// More entries than one internal batch to cross a cursor boundary.
	db := seedSpatial(t, 4, 300)
	g := workload.NewGenerator(workload.Config{Seed: 22, Vocabulary: 12, Width: 64, Height: 64})
	img := g.Scene()
	q := NewQuery(img)

	full, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Hit
	for h, err := range db.QueryIter(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, h)
	}
	hitsEqual(t, "streamed ranking", streamed, full.Hits)

	// WithK caps the stream.
	n := 0
	for _, err := range db.QueryIter(ctx, q, WithK(7)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 7 {
		t.Errorf("WithK(7) streamed %d hits", n)
	}

	// Early break stops cleanly.
	n = 0
	for _, err := range db.QueryIter(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("early break streamed %d hits", n)
	}

	// Errors surface through the sequence.
	for _, err := range db.QueryIter(ctx, NewMatchQuery(), Where("not a clause !!")) {
		if err == nil {
			t.Fatal("iterator yielded a hit for an invalid query")
		}
	}
}

// TestQueryValidation exercises the builder's sticky errors and the
// pipeline's input validation.
func TestQueryValidation(t *testing.T) {
	ctx := context.Background()
	db := seedSpatial(t, 2, 5)
	g := workload.NewGenerator(workload.Config{Seed: 23, Vocabulary: 12, Width: 64, Height: 64})
	img := g.Scene()

	cases := []struct {
		name string
		q    *Query
		opts []QueryOption
		want string
	}{
		{"empty", NewMatchQuery(), nil, "empty query"},
		{"bad where", NewQuery(img), []QueryOption{Where("one two three")}, "unknown predicate"},
		{"negative k", NewQuery(img), []QueryOption{WithK(-1)}, "negative k"},
		{"negative offset", NewQuery(img), []QueryOption{WithOffset(-2)}, "negative offset"},
		{"negative parallelism", NewQuery(img), []QueryOption{WithParallelism(-1)}, "negative parallelism"},
		{"unknown scorer", NewQuery(img), []QueryOption{WithScorer("cosine")}, "unknown scorer"},
		{"bad cursor", NewQuery(img), []QueryOption{WithCursor("!!!")}, "bad cursor"},
		{"bad wheremin", NewQuery(img), []QueryOption{Where("A left-of B"), WithWhereMin(1.5)}, "where-min"},
		{"bad region", NewQuery(img), []QueryOption{InRegion(core.Rect{X0: 5, X1: 1, Y0: 0, Y1: 1})}, "invalid region"},
	}
	for _, tc := range cases {
		if _, err := db.Query(ctx, tc.q, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	// The sticky error is also visible on the builder itself.
	q := NewQuery(img)
	q.apply([]QueryOption{Where("bogus")})
	if q.Err() == nil {
		t.Error("sticky builder error not exposed via Err")
	}

	// A reused Query value is not mutated by per-call options.
	base := NewQuery(img)
	if _, err := db.Query(ctx, base, WithK(2)); err != nil {
		t.Fatal(err)
	}
	page, err := db.Query(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) != 5 {
		t.Errorf("reused query returned %d hits, want all 5 (WithK leaked into the base value)", len(page.Hits))
	}
}

// seedRankDB builds an n-scene corpus for the rank-stage tests, half of
// it bulk-loaded (arena-backed entries) and half inserted one by one
// (boxed entries). Every scene carries the pair "wl left-of wr", so a
// Where clause naming it narrows nothing and the candidate count
// entering the rank stage is n whatever the query's shape.
func seedRankDB(t *testing.T, n int) (*DB, []core.Image) {
	t.Helper()
	g := workload.NewGenerator(workload.Config{Seed: 1407, Vocabulary: 12, Width: 64, Height: 64, Objects: 5})
	scenes := make([]core.Image, n)
	for i := range scenes {
		scenes[i] = g.Scene().
			WithObject(core.Object{Label: "wl", Box: core.NewRect(1, 1, 3, 3)}).
			WithObject(core.Object{Label: "wr", Box: core.NewRect(10, 1, 12, 3)})
	}
	db := NewSharded(4)
	items := make([]BulkItem, n/2)
	for i := range items {
		items[i] = BulkItem{ID: fmt.Sprintf("r%04d", i), Name: fmt.Sprintf("scene %d", i), Image: scenes[i]}
	}
	if err := db.BulkInsert(context.Background(), items, 2); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := db.Insert(fmt.Sprintf("r%04d", i), "", scenes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, scenes
}

// TestRankChunkedByteIdentical pins the chunk-claiming rank stage
// against the score-everything-and-full-sort reference: Hits, Total and
// NextCursor are byte-identical at every worker count, for candidate
// counts on both sides of every chunk boundary, under every option that
// changes what the kernel does per candidate; and the stage counts keep
// their meaning (Narrowed is the candidate count, every bounded
// candidate is either evaluated or pruned).
func TestRankChunkedByteIdentical(t *testing.T) {
	ctx := context.Background()
	const clause = "wl left-of wr; icon00 left-of icon01"
	g := workload.NewGenerator(workload.Config{Seed: 99, Vocabulary: 12})
	for _, n := range []int{0, 1, rankChunk - 1, rankChunk, rankChunk + 1, 3*rankChunk + 7} {
		db, scenes := seedRankDB(t, n)
		img := g.Scene()
		if n > 0 {
			img = g.SubsetQuery(scenes[n/3], 4)
		}
		first := referencePage(t, db, composedSpec{image: &img, whereMin: -1, k: 5})
		var resume *cursorPos
		if first.Cursor != "" {
			c, err := decodeCursor(first.Cursor)
			if err != nil {
				t.Fatal(err)
			}
			resume = &c
		}
		variants := []struct {
			name  string
			match bool // rank by the Where clause's satisfied fraction, no image
			opts  []QueryOption
			spec  composedSpec
		}{
			{"plain", false, []QueryOption{WithK(10)}, composedSpec{k: 10}},
			{"unbounded", false, nil, composedSpec{}},
			{"min-score", false, []QueryOption{WithK(10), WithMinScore(0.35)}, composedSpec{k: 10, minScore: 0.35}},
			{"offset", false, []QueryOption{WithK(5), WithOffset(7)}, composedSpec{k: 5, offset: 7}},
			{"cursor", false, []QueryOption{WithK(5), WithCursor(first.Cursor)}, composedSpec{k: 5, cursor: resume}},
			{"where", false, []QueryOption{WithK(10), Where(clause), WithWhereMin(0.5)}, composedSpec{k: 10, dsl: clause, whereMin: 0.5}},
			{"where-ranked", true, []QueryOption{WithK(10), Where(clause)}, composedSpec{k: 10, dsl: clause, whereMin: -1}},
			{"no-pruning", false, []QueryOption{WithK(10), WithPruning(false)}, composedSpec{k: 10}},
			{"no-cache", false, []QueryOption{WithK(10), WithScorerCache(false)}, composedSpec{k: 10}},
		}
		for _, v := range variants {
			spec := v.spec
			base := NewMatchQuery()
			if !v.match {
				spec.image = &img
				base = NewQuery(img)
			}
			if spec.dsl == "" {
				spec.whereMin = -1
			}
			want := referencePage(t, db, spec)
			if want.Hits == nil {
				want.Hits = []Hit{}
			}
			wj, _ := json.Marshal(want)
			for _, par := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("n=%d %s parallelism=%d", n, v.name, par)
				page, err := db.Query(ctx, base, append([]QueryOption{WithParallelism(par)}, v.opts...)...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gj := pageID(t, page); gj != string(wj) {
					t.Fatalf("%s: diverged from the full-sort reference\n got %s\nwant %s", label, gj, wj)
				}
				sc := page.Stages
				if sc.Narrowed != n {
					t.Fatalf("%s: Narrowed = %d, want %d", label, sc.Narrowed, n)
				}
				if v.match || v.name == "no-pruning" {
					if sc.Bounded != 0 || sc.Pruned != 0 || sc.Evaluated != n {
						t.Fatalf("%s: stage counts %+v, want everything evaluated and nothing bounded", label, sc)
					}
				} else if sc.Bounded != n || sc.Evaluated+sc.Pruned != sc.Bounded {
					t.Fatalf("%s: stage counts %+v, want Bounded = %d = Evaluated + Pruned", label, sc, n)
				}
			}
		}
	}
}

// TestQueryCancelled checks the pipeline surfaces context cancellation
// from both the predicate-evaluation and the scoring stage. The scoring
// stage has no feeder to stop: each worker checks the context when it
// claims a chunk, so a query cancelled before it starts scores at most
// one chunk per worker and leaves no goroutine behind.
func TestQueryCancelled(t *testing.T) {
	db := seedSpatial(t, 2, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, NewMatchQuery(), Where("tag left-of anchor")); !errors.Is(err, context.Canceled) {
		t.Errorf("dsl stage err = %v, want context.Canceled", err)
	}

	const workers = 3
	ranked, scenes := seedRankDB(t, 6*rankChunk)
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	counting := func(q core.Image, qbe core.BEString, e Entry) float64 {
		calls.Add(1)
		return BEScorer()(q, qbe, e)
	}
	_, err := ranked.Query(ctx, NewQuery(scenes[0]), WithK(5), WithScorerFunc(counting), WithParallelism(workers))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("rank stage err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > workers*rankChunk {
		t.Errorf("pre-cancelled query scored %d candidates, want at most one chunk (%d) per worker", n, rankChunk)
	}
	waitGoroutines(t, before)
}

func TestScorerRegistry(t *testing.T) {
	for _, name := range []string{"be", "invariant", "type0", "type1", "type2", "symbols"} {
		if _, ok := LookupScorer(name); !ok {
			t.Errorf("builtin scorer %q not registered", name)
		}
	}
	if _, ok := LookupScorer(""); !ok {
		t.Error("empty name does not resolve to the default scorer")
	}
	if _, ok := LookupScorer("nope"); ok {
		t.Error("unknown name resolved")
	}
	if err := RegisterScorer("be", BEScorer()); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := RegisterScorer("", BEScorer()); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterScorer("nil-test", nil); err == nil {
		t.Error("nil scorer accepted")
	}

	// A custom scorer is usable by name end to end.
	constant := func(_ core.Image, _ core.BEString, _ Entry) float64 { return 0.25 }
	if err := RegisterScorer("registry-test-constant", constant); err != nil {
		t.Fatal(err)
	}
	db := seedSpatial(t, 1, 4)
	g := workload.NewGenerator(workload.Config{Seed: 25, Vocabulary: 12, Width: 64, Height: 64})
	page, err := db.Query(context.Background(), NewQuery(g.Scene()), WithScorer("registry-test-constant"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range page.Hits {
		if h.Score != 0.25 {
			t.Fatalf("custom scorer hit = %+v", h)
		}
	}

	names := ScorerNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("ScorerNames not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "registry-test-constant" {
			found = true
		}
	}
	if !found {
		t.Errorf("registered name missing from %v", names)
	}
}
