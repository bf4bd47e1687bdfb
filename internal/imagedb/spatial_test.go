package imagedb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"bestring/internal/core"
	"bestring/internal/query"
	"bestring/internal/workload"
)

func beachScene() core.Image {
	return core.NewImage(20, 20,
		core.Object{Label: "sun", Box: core.NewRect(14, 14, 18, 18)},
		core.Object{Label: "sea", Box: core.NewRect(0, 0, 20, 6)},
		core.Object{Label: "boat", Box: core.NewRect(4, 6, 8, 9)},
	)
}

// regionIDs runs a region-only query (label "" means any icon) and
// returns the matching image ids, which such a query ranks in id order.
func regionIDs(t *testing.T, db *DB, region core.Rect, label string) []string {
	t.Helper()
	page, err := db.Query(context.Background(), NewMatchQuery(), InRegionLabel(region, label))
	if err != nil {
		t.Fatalf("region query %v %q: %v", region, label, err)
	}
	ids := make([]string, len(page.Hits))
	for i, h := range page.Hits {
		ids[i] = h.ID
	}
	return ids
}

// wantRegionIDs is the naive reference for regionIDs: the sorted ids of
// the stored images with a (matching) box intersecting the region, read
// from the entries themselves rather than any index.
func wantRegionIDs(db *DB, region core.Rect, label string) []string {
	var ids []string
	for _, id := range db.IDs() {
		e, _ := db.Get(id)
		for _, o := range e.Image.Objects {
			if (label == "" || o.Label == label) && o.Box.Intersects(region) {
				ids = append(ids, id)
				break
			}
		}
	}
	sort.Strings(ids)
	return ids
}

func TestSearchRegion(t *testing.T) {
	db := New()
	if err := db.Insert("beach", "", beachScene()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("fig1", "", core.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	all, corner := core.NewRect(0, 0, 20, 20), core.NewRect(15, 15, 20, 20)
	for _, tc := range []struct {
		region core.Rect
		label  string
		want   []string
	}{
		{corner, "", []string{"beach"}},      // top-right corner of the beach: only the sun
		{all, "sea", []string{"beach"}},      // label-restricted
		{all, "A", []string{"fig1"}},         // a label only the other image has
		{corner, "sea", nil},                 // the label exists, its box is elsewhere
		{all, "", []string{"beach", "fig1"}}, // a region covering everything finds both images
	} {
		got, boxes := regionIDs(t, db, tc.region, tc.label), wantRegionIDs(db, tc.region, tc.label)
		if !slices.Equal(got, tc.want) || !slices.Equal(got, boxes) {
			t.Errorf("region %v label %q = %v, want %v (boxes say %v)", tc.region, tc.label, got, tc.want, boxes)
		}
	}
	// Invalid region.
	if _, err := db.Query(context.Background(), NewMatchQuery(), InRegion(core.Rect{X0: 5, Y0: 5, X1: 1, Y1: 1})); err == nil {
		t.Error("invalid region accepted")
	}
}

func TestSearchRegionTracksUpdates(t *testing.T) {
	db := New()
	if err := db.Insert("beach", "", beachScene()); err != nil {
		t.Fatal(err)
	}
	corner := core.NewRect(15, 15, 20, 20)
	if err := db.DeleteObject("beach", "sun"); err != nil {
		t.Fatal(err)
	}
	if ids := regionIDs(t, db, corner, ""); len(ids) != 0 {
		t.Errorf("sun still indexed after DeleteObject: %v", ids)
	}
	if err := db.InsertObject("beach", core.Object{Label: "gull", Box: core.NewRect(16, 16, 17, 17)}); err != nil {
		t.Fatal(err)
	}
	if ids := regionIDs(t, db, corner, "gull"); !slices.Equal(ids, []string{"beach"}) {
		t.Errorf("gull not indexed after InsertObject: %v", ids)
	}
	if ids := regionIDs(t, db, corner, ""); !slices.Equal(ids, wantRegionIDs(db, corner, "")) || len(ids) != 1 {
		t.Errorf("corner after InsertObject = %v", ids)
	}
	if ids := regionIDs(t, db, corner, "sun"); len(ids) != 0 {
		t.Errorf("sun back in the index after InsertObject(gull): %v", ids)
	}
	if err := db.Delete("beach"); err != nil {
		t.Fatal(err)
	}
	if ids := regionIDs(t, db, core.NewRect(0, 0, 20, 20), ""); len(ids) != 0 {
		t.Errorf("icons still indexed after image delete: %v", ids)
	}
}

func TestSearchDSL(t *testing.T) {
	db := New()
	if err := db.Insert("beach", "", beachScene()); err != nil {
		t.Fatal(err)
	}
	// The same scene flipped vertically: sun below the sea.
	if err := db.Insert("upside", "", beachScene().ReflectXAxis()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("fig1", "", core.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse("sun above sea; boat above sea")
	if err != nil {
		t.Fatal(err)
	}
	page, err := db.Query(context.Background(), NewMatchQuery(), WhereQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	results := page.Hits
	if len(results) != 1 {
		t.Fatalf("results = %+v, want only the beach (flipped scene satisfies nothing)", results)
	}
	if results[0].ID != "beach" || !results[0].Full || results[0].Score != 1 {
		t.Errorf("top = %+v", results[0])
	}

	// A partially satisfiable query ranks the partial match below the full.
	q2, err := query.Parse("sea below boat; sea left-of boat")
	if err != nil {
		t.Fatal(err)
	}
	page, err = db.Query(context.Background(), NewMatchQuery(), WhereQuery(q2))
	if err != nil {
		t.Fatal(err)
	}
	results = page.Hits
	if len(results) != 1 || results[0].Score != 0.5 || results[0].Full {
		t.Errorf("partial results = %+v, want beach at 0.5", results)
	}
}

func TestSearchDSLErrors(t *testing.T) {
	db := New()
	if _, err := db.Query(context.Background(), NewMatchQuery(), WhereQuery(query.Query{})); err == nil {
		t.Error("empty query accepted")
	}
	if err := db.Insert("beach", "", beachScene()); err != nil {
		t.Fatal(err)
	}
	q, _ := query.Parse("sun above sea")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, NewMatchQuery(), WhereQuery(q)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestImagesWithLabel(t *testing.T) {
	db := New()
	if err := db.Insert("beach", "", beachScene()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("fig1", "", core.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	if got := db.ImagesWithLabel("sun"); len(got) != 1 || got[0] != "beach" {
		t.Errorf("ImagesWithLabel(sun) = %v", got)
	}
	if got := db.ImagesWithLabel("ghost"); len(got) != 0 {
		t.Errorf("ImagesWithLabel(ghost) = %v", got)
	}
}

func TestLabelPrefilterMatchesFullSearch(t *testing.T) {
	db := New()
	gen := workload.NewGenerator(workload.Config{Seed: 31, Vocabulary: 40})
	var scenes []core.Image
	for i := 0; i < 40; i++ {
		s := gen.Scene()
		scenes = append(scenes, s)
		if err := db.Insert(fmt.Sprintf("img%03d", i), "", s); err != nil {
			t.Fatal(err)
		}
	}
	queryImg := gen.SubsetQuery(scenes[7], 4)
	full, err := search(context.Background(), db, queryImg, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := search(context.Background(), db, queryImg, WithK(5), WithLabelPrefilter(true))
	if err != nil {
		t.Fatal(err)
	}
	// The prefilter may only drop zero-overlap images, which cannot be in
	// the top ranks here; the head of the ranking must agree.
	if len(filtered) == 0 || filtered[0] != full[0] {
		t.Errorf("prefilter changed the top result: %+v vs %+v", filtered, full)
	}
	for i := range filtered {
		if filtered[i].ID != full[i].ID {
			t.Errorf("rank %d differs: %+v vs %+v", i, filtered[i], full[i])
		}
	}
}

func TestBulkInsert(t *testing.T) {
	db := New()
	gen := workload.NewGenerator(workload.Config{Seed: 9, Vocabulary: 30})
	items := make([]BulkItem, 25)
	for i := range items {
		items[i] = BulkItem{ID: fmt.Sprintf("bulk%02d", i), Name: "b", Image: gen.Scene()}
	}
	if err := db.BulkInsert(context.Background(), items, 8); err != nil {
		t.Fatalf("BulkInsert: %v", err)
	}
	if db.Len() != 25 {
		t.Fatalf("Len = %d", db.Len())
	}
	// Entries indexed identically to one-by-one insertion.
	for _, it := range items {
		e, ok := db.Get(it.ID)
		if !ok || !e.BE.Equal(core.MustConvert(it.Image)) {
			t.Errorf("entry %q missing or misindexed", it.ID)
		}
	}
	// Order preserved.
	ids := db.IDs()
	for i, it := range items {
		if ids[i] != it.ID {
			t.Errorf("order[%d] = %s, want %s", i, ids[i], it.ID)
		}
	}
}

func TestBulkInsertAllOrNothing(t *testing.T) {
	db := New()
	if err := db.Insert("existing", "", core.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	items := []BulkItem{
		{ID: "new1", Image: core.Figure1Image()},
		{ID: "existing", Image: core.Figure1Image()}, // collides
	}
	if err := db.BulkInsert(context.Background(), items, 2); err == nil {
		t.Fatal("collision accepted")
	}
	if db.Len() != 1 {
		t.Errorf("partial bulk insert leaked entries: Len = %d", db.Len())
	}
	// Invalid image rejects the whole batch.
	items = []BulkItem{
		{ID: "ok", Image: core.Figure1Image()},
		{ID: "bad", Image: core.NewImage(5, 5)},
	}
	if err := db.BulkInsert(context.Background(), items, 2); err == nil {
		t.Fatal("invalid image accepted")
	}
	if db.Len() != 1 {
		t.Errorf("failed bulk insert leaked entries: Len = %d", db.Len())
	}
	// Duplicate ids within the batch.
	items = []BulkItem{
		{ID: "dup", Image: core.Figure1Image()},
		{ID: "dup", Image: core.Figure1Image()},
	}
	if err := db.BulkInsert(context.Background(), items, 2); err == nil {
		t.Fatal("in-batch duplicate accepted")
	}
	// Empty batch is a no-op.
	if err := db.BulkInsert(context.Background(), nil, 2); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}
