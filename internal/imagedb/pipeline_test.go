package imagedb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bestring/internal/core"
	"bestring/internal/ingest"
	"bestring/internal/obs"
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
	// labelPrefilter keeps only images sharing an icon label with image.
	labelPrefilter bool
}

// referenceComposed is the filter-then-full-sort reference: apply every
// filter serially per image, score everything that survives, sort
// everything, then paginate. The pipeline must match it byte for byte.
func referenceComposed(t *testing.T, db *DB, spec composedSpec) []Hit {
	t.Helper()
	return referencePage(t, db, spec).Hits
}

// referenceSource is what the reference reads a version through: the
// current one (*DB) or a pinned one (*Snapshot).
type referenceSource interface {
	IDs() []string
	Get(id string) (Entry, bool)
	Epoch() uint64
}

// referencePage is referenceComposed with the page's Total and
// NextCursor as well.
func referencePage(t *testing.T, db referenceSource, spec composedSpec) pageKey {
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
		if spec.labelPrefilter && spec.image != nil && !slices.ContainsFunc(e.Image.Objects, func(o core.Object) bool {
			_, shared := spec.image.Find(o.Label)
			return shared
		}) {
			continue
		}
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

// assertReference fails unless page equals referencePage's answer for
// spec over src byte for byte: Hits (with Where/Full), Total and
// NextCursor.
func assertReference(t *testing.T, label string, src referenceSource, page *Page, spec composedSpec) {
	t.Helper()
	want := referencePage(t, src, spec)
	if want.Hits == nil {
		want.Hits = []Hit{} // an empty page is [] on the wire, not null
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := pageID(t, page); got != string(wj) {
		t.Fatalf("%s: diverged from the full-sort reference\n got %s\nwant %s", label, got, wj)
	}
}

// assertWalkMatchesReference walks a paginated query to its end — run
// executes one page resuming after the given cursor ("" for the first)
// — and checks every page against referencePage resumed at the same
// position, so the whole cursor chain is pinned, not just its union.
func assertWalkMatchesReference(t *testing.T, label string, src referenceSource, spec composedSpec, run func(cursor string) *Page) {
	t.Helper()
	cursor := ""
	for n := 0; ; n++ {
		page := run(cursor)
		spec.cursor = nil
		if cursor != "" {
			c, err := decodeCursor(cursor)
			if err != nil {
				t.Fatal(err)
			}
			spec.cursor = &c
		}
		assertReference(t, fmt.Sprintf("%s page %d", label, n), src, page, spec)
		if page.NextCursor == "" {
			return
		}
		cursor = page.NextCursor
	}
}

// mustOp parses a predicate name.
func mustOp(t *testing.T, name string) query.Op {
	t.Helper()
	q, err := query.Parse("a " + name + " b")
	if err != nil {
		t.Fatal(err)
	}
	return q.Constraints[0].Op
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
	// Ids are opaque: one with a NUL byte, in the probe region and
	// satisfying the clause, must be found like any other.
	if err := db.Insert("img\x00nul", "", core.NewImage(64, 64,
		core.Object{Label: "tag", Box: core.NewRect(1, 1, 3, 3)},
		core.Object{Label: "anchor", Box: core.NewRect(10, 1, 12, 3)},
		core.Object{Label: "probe", Box: core.NewRect(50, 50, 55, 55)})); err != nil {
		t.Fatal(err)
	}
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

	// Randomized narrowing specs, on this corpus and on one that came in
	// through the importer (arena-packed entries).
	assertNarrowingMatchesReference(t, "seeded", db, 1)
	imported, err := OpenStore(t.TempDir(), StoreOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer imported.Close()
	if _, err := imported.Import(context.Background(), ingest.FromItems(importScenes(9, 90)), ImportOptions{ChunkScenes: 32}); err != nil {
		t.Fatal(err)
	}
	assertNarrowingMatchesReference(t, "imported", imported.db, 2)
}

// assertNarrowingMatchesReference is the one reference test of the
// narrowing layer: seeded random query specs — one to three Where
// constraints over a handful of db's labels plus one no entry carries
// (so constraints share labels and some can never hold), every Where
// threshold, a region inside, straddling and containing the canvas with
// and without a label, LabelPrefilter, with and without a query image —
// each run twice (a ranked spec's first run bypasses the scorer cache,
// its second fills it) and compared, page for page (Hits with
// Where/Full, Total, NextCursor), with referencePage's naive pass over
// Get. It also checks the posting-run invariants.
func assertNarrowingMatchesReference(t *testing.T, door string, db *DB, seed int64) {
	t.Helper()
	assertPostings(t, db)
	ids := db.IDs()
	if len(ids) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	first, _ := db.Get(ids[0])
	w, h := first.Image.XMax, first.Image.YMax
	seen := map[string]bool{}
	var pool []string
	for _, id := range ids {
		e, _ := db.Get(id)
		for _, o := range e.Image.Objects {
			if !seen[o.Label] {
				seen[o.Label] = true
				pool = append(pool, o.Label)
			}
		}
	}
	sort.Strings(pool)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = append(pool[:min(len(pool), 5)], "no-such-label")
	label := func() string { return pool[rng.Intn(len(pool))] }
	ops := []string{"left-of", "right-of", "above", "below", "overlaps", "disjoint", "inside", "contains"}
	regions := []core.Rect{
		core.NewRect(w/4, h/4, w/2, h/2),   // inside the canvas
		core.NewRect(-w, -h, w/3, h/3),     // straddling its corner
		core.NewRect(-1, -1, 2*w+1, 2*h+1), // containing it
	}

	for n := 0; n < 60; n++ {
		var spec composedSpec
		var opts []QueryOption
		// Half of what a spec asks for is read off one stored image, so
		// that most specs have an answer; the rest is drawn blind.
		src, _ := db.Get(ids[rng.Intn(len(ids))])
		object := func() core.Object { return src.Image.Objects[rng.Intn(len(src.Image.Objects))] }
		q := NewMatchQuery()
		if rng.Intn(2) == 0 {
			spec.image, q = &src.Image, NewQuery(src.Image)
		}
		spec.whereMin = -1
		if rng.Intn(4) > 0 {
			var clauses []string
			for c := 1 + rng.Intn(3); c > 0; c-- {
				a, b, op := label(), label(), ops[rng.Intn(len(ops))]
				if o1, o2 := object(), object(); o1.Label != o2.Label && rng.Intn(3) > 0 {
					a, b = o1.Label, o2.Label
					for !query.Holds(mustOp(t, op), o1.Box, o2.Box) {
						op = ops[rng.Intn(len(ops))]
					}
				}
				for b == a {
					b = label()
				}
				clauses = append(clauses, a+" "+op+" "+b)
			}
			spec.dsl = strings.Join(clauses, "; ")
			opts = append(opts, Where(spec.dsl))
			if min := []float64{-1, 0.5, 1}[rng.Intn(3)]; min > 0 {
				spec.whereMin = min
				opts = append(opts, WithWhereMin(min))
			}
		}
		if rng.Intn(2) == 0 || spec.image == nil && spec.dsl == "" {
			o := object()
			spec.region = &regions[rng.Intn(len(regions))]
			if rng.Intn(2) == 0 {
				spec.region = &o.Box
			}
			switch rng.Intn(4) {
			case 0:
				spec.regionLabel = label()
			case 1:
				spec.regionLabel = o.Label
			}
			opts = append(opts, InRegionLabel(*spec.region, spec.regionLabel))
		}
		if rng.Intn(3) == 0 {
			spec.labelPrefilter = true
			opts = append(opts, WithLabelPrefilter(true))
		}
		if spec.k = []int{0, 2, 5}[rng.Intn(3)]; spec.k > 0 {
			opts = append(opts, WithK(spec.k))
		}
		ref := referencePage(t, db, spec)
		if ref.Hits == nil {
			ref.Hits = []Hit{} // an empty page is [] on the wire, not null
		}
		want, _ := json.Marshal(ref)
		for run := 1; run <= 2; run++ {
			page, err := db.Query(context.Background(), q, opts...)
			if err != nil {
				t.Fatalf("%s spec %d %+v: %v", door, n, spec, err)
			}
			if got := pageID(t, page); got != string(want) {
				t.Fatalf("%s spec %d (run %d) dsl %q min %v region %v/%q prefilter %v image %v k %d:\n got %s\nwant %s",
					door, n, run, spec.dsl, spec.whereMin, spec.region, spec.regionLabel,
					spec.labelPrefilter, spec.image != nil, spec.k, got, want)
			}
			if page.Stages.Indexed < page.Stages.Region || page.Stages.Region < page.Stages.Narrowed {
				t.Fatalf("%s spec %d: stage counts widen: %+v", door, n, page.Stages)
			}
		}
	}
	// A threshold of 0 is no threshold: rejected, not treated as "any".
	if _, err := db.Query(context.Background(), NewMatchQuery(), Where(pool[0]+" above "+pool[1]), WithWhereMin(0)); err == nil {
		t.Fatalf("%s: WithWhereMin(0) accepted", door)
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

// rankScenes generates the n scenes of a rank-stage test corpus. Every
// scene carries the pair "wl left-of wr", so a Where clause naming it —
// or a label prefilter on a query holding "wl" — narrows nothing and the
// candidate count entering the rank stage is n whatever the query's
// shape.
func rankScenes(n, vocabulary int) []core.Image {
	g := workload.NewGenerator(workload.Config{Seed: 1407, Vocabulary: vocabulary, Width: 64, Height: 64, Objects: 5})
	scenes := make([]core.Image, n)
	for i := range scenes {
		scenes[i] = g.Scene().
			WithObject(core.Object{Label: "wl", Box: core.NewRect(1, 1, 3, 3)}).
			WithObject(core.Object{Label: "wr", Box: core.NewRect(10, 1, 12, 3)})
	}
	return scenes
}

func rankSceneID(i int) string { return fmt.Sprintf("r%04d", i) }

// seedRankDB builds an n-scene corpus for the rank-stage tests, half of
// it bulk-loaded (arena-backed entries) and half inserted one by one
// (boxed entries).
func seedRankDB(t *testing.T, n int) (*DB, []core.Image) {
	t.Helper()
	return loadRankDB(t, rankScenes(n, 12))
}

func loadRankDB(t *testing.T, scenes []core.Image) (*DB, []core.Image) {
	t.Helper()
	n := len(scenes)
	db := NewSharded(4)
	items := make([]BulkItem, n/2)
	for i := range items {
		items[i] = BulkItem{ID: rankSceneID(i), Name: fmt.Sprintf("scene %d", i), Image: scenes[i]}
	}
	if err := db.BulkInsert(context.Background(), items, 2); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := db.Insert(rankSceneID(i), "", scenes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, scenes
}

// replayedRankStores loads the scenes into a durable store through every
// write path (streamed import, single inserts, an object update, a
// delete and re-insert), with a checkpoint in the middle so that
// reopening recovers from snapshot + WAL tail, and returns the reopened
// store and a follower that caught up from the primary's log. In both,
// every entry — and the label dictionary under the entries' codes — was
// rebuilt by replay; neither ever saw the dictionary of the process that
// took the writes.
func replayedRankStores(t *testing.T, scenes []core.Image) (reopened, follower *Store) {
	t.Helper()
	ctx := context.Background()
	n := len(scenes)
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	follower, err = OpenStore(t.TempDir(), StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	catchUp := func() {
		t.Helper()
		if err := follower.ApplyReplicatedBatch(collectDurableAfter(t, s, follower.AppliedLSN())); err != nil {
			t.Fatal(err)
		}
	}
	imported := make([]ingest.Scene, n/2)
	for i := range imported {
		imported[i] = ingest.Scene{ID: rankSceneID(i), Name: fmt.Sprintf("scene %d", i), Image: scenes[i]}
	}
	if _, err := s.Import(ctx, ingest.FromItems(imported), ImportOptions{ChunkScenes: 100}); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if i == 3*n/4 {
			catchUp() // the checkpoint prunes the log a follower at LSN 0 would need
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Insert(rankSceneID(i), "", scenes[i]); err != nil {
			t.Fatal(err)
		}
	}
	// An update and a delete + re-insert that leave the content as
	// loadRankDB would have it, but replace arena and boxed entries.
	extra := core.Object{Label: "replay-extra", Box: core.NewRect(20, 20, 22, 22)}
	for _, id := range []string{rankSceneID(1), rankSceneID(n - 1)} {
		if err := s.InsertObject(id, extra); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteObject(id, extra.Label); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(rankSceneID(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(rankSceneID(2), "scene 2", scenes[2]); err != nil {
		t.Fatal(err)
	}
	catchUp()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err = OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	return reopened, follower
}

// TestRankChunkedByteIdentical pins the chunk-claiming rank stage
// against the score-everything-and-full-sort reference: Hits, Total and
// NextCursor are byte-identical at every worker count, for candidate
// counts on both sides of every chunk boundary, under every option that
// changes what the kernel does per candidate; and the stage counts keep
// their meaning (Narrowed is the candidate count, every bounded
// candidate is either evaluated or pruned).
func TestRankChunkedByteIdentical(t *testing.T) {
	const big = 3*rankChunk + 7
	type corpus struct {
		name   string
		db     *DB
		scenes []core.Image
	}
	var corpora []corpus
	for _, n := range []int{0, 1, rankChunk - 1, rankChunk, rankChunk + 1, big} {
		db, scenes := seedRankDB(t, n)
		corpora = append(corpora, corpus{fmt.Sprintf("n=%d", n), db, scenes})
	}
	// Vocabulary 200: most label ids are 64 and up, so signatures live in
	// the interned set's overflow list rather than its bitmap.
	wide, wideScenes := loadRankDB(t, rankScenes(big, 200))
	corpora = append(corpora, corpus{fmt.Sprintf("n=%d vocabulary=200", big), wide, wideScenes})
	// The same corpus rebuilt by replay: reopened from checkpoint + WAL,
	// and on a follower after catch-up.
	reopened, follower := replayedRankStores(t, wideScenes)
	corpora = append(corpora,
		corpus{fmt.Sprintf("n=%d reopened store", big), reopened.db, wideScenes},
		corpus{fmt.Sprintf("n=%d follower", big), follower.db, wideScenes})
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) { rankChunkedSweep(t, c.db, c.scenes) })
	}
	assertSignaturesInstalled(t, reopened.db)
	assertSignaturesInstalled(t, follower.db)
}

// rankChunkedSweep is the body of TestRankChunkedByteIdentical for one
// corpus.
func rankChunkedSweep(t *testing.T, db *DB, scenes []core.Image) {
	ctx := context.Background()
	const clause = "wl left-of wr; icon00 left-of icon01"
	n := len(scenes)
	g := workload.NewGenerator(workload.Config{Seed: 99, Vocabulary: 12})
	img := g.Scene()
	if n > 0 {
		img = g.SubsetQuery(scenes[n/3], 4)
	}
	// Every scene holds "wl", so with it in the query a label prefilter
	// narrows nothing: same candidates, reached by collect instead of
	// the scan columns.
	if _, ok := img.Find("wl"); !ok {
		img = img.WithObject(core.Object{Label: "wl", Box: core.NewRect(1, 1, 3, 3)})
	}
	// The same query with two icons no stored scene has ever carried:
	// labels the dictionary cannot resolve.
	stranger := img.
		WithObject(core.Object{Label: "never-stored-a", Box: core.NewRect(30, 30, 34, 36)}).
		WithObject(core.Object{Label: "never-stored-b", Box: core.NewRect(32, 5, 40, 9)})
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
		match bool        // rank by the Where clause's satisfied fraction, no image
		img   *core.Image // nil: img
		opts  []QueryOption
		spec  composedSpec
	}{
		{name: "plain", opts: []QueryOption{WithK(10)}, spec: composedSpec{k: 10}},
		{name: "unbounded"},
		{name: "min-score", opts: []QueryOption{WithK(10), WithMinScore(0.35)}, spec: composedSpec{k: 10, minScore: 0.35}},
		{name: "offset", opts: []QueryOption{WithK(5), WithOffset(7)}, spec: composedSpec{k: 5, offset: 7}},
		{name: "cursor", opts: []QueryOption{WithK(5), WithCursor(first.Cursor)}, spec: composedSpec{k: 5, cursor: resume}},
		{name: "where", opts: []QueryOption{WithK(10), Where(clause), WithWhereMin(0.5)}, spec: composedSpec{k: 10, dsl: clause, whereMin: 0.5}},
		{name: "where-ranked", match: true, opts: []QueryOption{WithK(10), Where(clause)}, spec: composedSpec{k: 10, dsl: clause, whereMin: -1}},
		{name: "unknown-labels", img: &stranger, opts: []QueryOption{WithK(10)}, spec: composedSpec{k: 10}},
		{name: "invariant", opts: []QueryOption{WithK(10), WithScorer("invariant")}, spec: composedSpec{k: 10, scorer: InvariantScorer(nil)}},
		{name: "invariant-unknown-labels", img: &stranger, opts: []QueryOption{WithK(10), WithScorer("invariant")}, spec: composedSpec{k: 10, scorer: InvariantScorer(nil)}},
		{name: "symbols", opts: []QueryOption{WithK(10), WithScorer("symbols")}, spec: composedSpec{k: 10, scorer: SymbolsOnlyScorer()}},
		// The pure scan's twin: the label prefilter, answered by the
		// union of the query labels' posting runs.
		{name: "prefilter", opts: []QueryOption{WithK(10), WithLabelPrefilter(true)}, spec: composedSpec{k: 10, labelPrefilter: true}},
	}
	for _, v := range variants {
		spec := v.spec
		base := NewMatchQuery()
		if !v.match {
			spec.image = &img
			if v.img != nil {
				spec.image = v.img
			}
			base = NewQuery(*spec.image)
		}
		if spec.dsl == "" {
			spec.whereMin = -1
		}
		want := referencePage(t, db, spec)
		if want.Hits == nil {
			want.Hits = []Hit{}
		}
		wj, _ := json.Marshal(want)
		// Every parallelism twice over: the second round of a cacheable
		// variant is past its first sighting, so it runs through the
		// scorer cache (fills, then hits) instead of bypassing it.
		for _, par := range []int{1, 2, 3, 8, 1, 8} {
			label := fmt.Sprintf("%s parallelism=%d", v.name, par)
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
			if v.match {
				if sc.Bounded != 0 || sc.Pruned != 0 || sc.Evaluated != n {
					t.Fatalf("%s: stage counts %+v, want everything evaluated and nothing bounded", label, sc)
				}
			} else if sc.Bounded != n || sc.Evaluated+sc.Pruned != sc.Bounded {
				t.Fatalf("%s: stage counts %+v, want Bounded = %d = Evaluated + Pruned", label, sc, n)
			}
		}
	}
}

// TestDictGrowsUnderReaders runs writers that keep installing scenes
// with labels the store has never held — growing the label dictionary —
// against readers ranking on pinned versions with queries that name
// those same labels, before and after they exist. Every page must equal
// the full-sort reference computed over the version it reports: a label
// interned after the pin resolves to an id no entry of that version
// carries, a label never interned resolves to nothing, and neither may
// change a score. Run under -race: the dictionary is the one structure
// readers share with writers.
func TestDictGrowsUnderReaders(t *testing.T) {
	ctx := context.Background()
	db, scenes := seedRankDB(t, rankChunk+7)
	labelsBefore := db.Stats().Labels
	const writers, readers, perReader = 2, 3, 12
	fresh := func(w, i int) string { return fmt.Sprintf("fresh-%d-%04d", w, i) }

	// Writers run for as long as the readers do, so every query overlaps
	// writes; each write installs exactly one label never seen before.
	readersDone := make(chan struct{})
	var written atomic.Int64
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			g := workload.NewGenerator(workload.Config{Seed: int64(500 + w), Vocabulary: 12, Width: 64, Height: 64, Objects: 4})
			for i := 0; ; i++ {
				select {
				case <-readersDone:
					return
				default:
				}
				obj := core.Object{Label: fresh(w, i), Box: core.NewRect(40, 40, 44, 46)}
				var err error
				switch i % 3 {
				case 0:
					err = db.Insert(fmt.Sprintf("w%d-%04d", w, i), "", g.Scene().WithObject(obj))
				case 1:
					err = db.BulkInsert(ctx, []BulkItem{
						{ID: fmt.Sprintf("w%d-%04d", w, i), Image: g.Scene().WithObject(obj)},
						{ID: fmt.Sprintf("w%d-%04d-b", w, i), Image: g.Scene()},
					}, 1)
				default:
					err = db.InsertObject(rankSceneID((w+writers*i)%len(scenes)), obj)
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				written.Add(1)
			}
		}()
	}
	var reading sync.WaitGroup
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			g := workload.NewGenerator(workload.Config{Seed: int64(900 + r), Vocabulary: 12})
			for i := 0; i < perReader; i++ {
				// A stored scene's subset plus one label a writer has
				// installed, is installing, or will install — and one
				// nobody ever will.
				next := int(written.Load()) / writers
				img := g.SubsetQuery(scenes[(r*31+i)%len(scenes)], 3).
					WithObject(core.Object{Label: fresh(i%writers, next+i%3-1), Box: core.NewRect(40, 40, 44, 46)}).
					WithObject(core.Object{Label: "never-installed", Box: core.NewRect(50, 2, 55, 8)})
				scorer, ref := "be", BEScorer()
				if i%4 == 3 {
					scorer, ref = "invariant", InvariantScorer(nil)
				}
				snap := db.Snapshot()
				page, err := snap.Query(ctx, NewQuery(img), WithK(10), WithScorer(scorer), WithParallelism(1+i%3))
				if err != nil {
					t.Errorf("reader %d query %d: %v", r, i, err)
					return
				}
				if page.Epoch != snap.Epoch() {
					t.Errorf("reader %d query %d: page reports epoch %d, pinned %d", r, i, page.Epoch, snap.Epoch())
					return
				}
				want := referencePage(t, snap, composedSpec{image: &img, whereMin: -1, k: 10, scorer: ref})
				wj, _ := json.Marshal(want)
				if gj := pageID(t, page); gj != string(wj) {
					t.Errorf("reader %d query %d at epoch %d: diverged from the full-sort reference\n got %s\nwant %s",
						r, i, page.Epoch, gj, wj)
					return
				}
			}
		}()
	}
	reading.Wait()
	close(readersDone)
	writing.Wait()
	if written.Load() < writers {
		t.Fatalf("only %d writes ran beside %d queries; the test raced nothing", written.Load(), readers*perReader)
	}
	if got, want := db.Stats().Labels, labelsBefore+int(written.Load()); got != want {
		t.Fatalf("dictionary holds %d labels, want %d (%d before + one per write; queries add none)", got, want, labelsBefore)
	}
	assertSignaturesInstalled(t, db)
}

// TestQueriesNeverGrowDictionary pins the other half of the contract: a
// hostile client sending 10 000 queries, each with labels the store has
// never seen, leaves the label dictionary — and so server memory —
// exactly as it was.
func TestQueriesNeverGrowDictionary(t *testing.T) {
	ctx := context.Background()
	db, _ := seedRankDB(t, 8)
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	gauge := func() string {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "bestring_label_dict_labels ") {
				return line
			}
		}
		t.Fatal("bestring_label_dict_labels missing from the exposition")
		return ""
	}
	before := gauge()
	for i := 0; i < 10000; i++ {
		img := core.NewImage(64, 64,
			core.Object{Label: fmt.Sprintf("hostile-%d-a", i), Box: core.NewRect(1, 1, 5, 5)},
			core.Object{Label: fmt.Sprintf("hostile-%d-b", i), Box: core.NewRect(3, 8, 9, 12)},
			core.Object{Label: "wl", Box: core.NewRect(20, 20, 22, 22)})
		opts := []QueryOption{WithK(3)}
		if i%2 == 1 {
			opts = append(opts, WithScorer("invariant"), WithLabelPrefilter(true))
		}
		if _, err := db.Query(ctx, NewQuery(img), opts...); err != nil {
			t.Fatal(err)
		}
	}
	if after := gauge(); after != before {
		t.Fatalf("10 000 queries with fresh labels moved the dictionary gauge: %q -> %q", before, after)
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
