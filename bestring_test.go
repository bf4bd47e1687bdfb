package bestring_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"bestring"
)

// hits runs a query through the facade's one read door and returns the
// page's hits.
func hits(t *testing.T, db *bestring.DB, q *bestring.Query, opts ...bestring.QueryOption) []bestring.QueryHit {
	t.Helper()
	page, err := db.Query(context.Background(), q, opts...)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	return page.Hits
}

// TestPublicAPIEndToEnd drives the whole public surface the way a
// downstream user would: build images, index, score, search, transform,
// rasterise, persist.
func TestPublicAPIEndToEnd(t *testing.T) {
	// Figure 1 conversion through the facade.
	img := bestring.Figure1Image()
	be, err := bestring.Convert(img)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if !be.Equal(bestring.Figure1BEString()) {
		t.Fatalf("Figure 1 mismatch: %v", be)
	}

	// Similarity of an image with itself is exact.
	if s := bestring.Similarity(be, be); s.F != 1 {
		t.Errorf("self similarity = %v, want 1", s.F)
	}
	if !bestring.Identical(be, be) {
		t.Error("Identical(be, be) = false")
	}

	// Partial query: drop B.
	partial, _ := img.WithoutObject("B")
	pbe := bestring.MustConvert(partial)
	s := bestring.Similarity(pbe, be)
	if s.Query != 1 || s.DB >= 1 {
		t.Errorf("partial query score = %+v", s)
	}
	m := bestring.Explain(pbe, be)
	if len(m.X) != m.LX || len(m.Y) != m.LY {
		t.Errorf("Explain reconstruction lengths inconsistent: %+v", m)
	}

	// Transform-invariant similarity finds the rotation.
	inv := bestring.SimilarityInvariant(be.Rotate90CW(), be, nil)
	if inv.F != 1 {
		t.Errorf("invariant score = %v, want 1", inv.F)
	}

	// Database round trip with search.
	db := bestring.NewDB()
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{Seed: 1, Vocabulary: 30})
	scenes := make([]bestring.Image, 12)
	for i := range scenes {
		scenes[i] = gen.Scene()
		if err := db.Insert(bestring.ClassLabel(i), "scene", scenes[i]); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	results := hits(t, db, bestring.NewQuery(scenes[4]), bestring.WithK(3))
	if results[0].ID != bestring.ClassLabel(4) || results[0].Score != 1 {
		t.Errorf("top result = %+v", results[0])
	}

	// Baseline scorer through the facade.
	results = hits(t, db, bestring.NewQuery(scenes[4]),
		bestring.WithK(1), bestring.WithScorer("type2"))
	if results[0].ID != bestring.ClassLabel(4) {
		t.Errorf("baseline top result = %+v", results[0])
	}

	// Persistence: a store directory keeps its writes across a reopen.
	dir := t.TempDir()
	store, err := bestring.OpenStore(dir, bestring.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for i, scene := range scenes {
		if err := store.Insert(bestring.ClassLabel(i), "scene", scene); err != nil {
			t.Fatalf("store Insert: %v", err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := bestring.OpenStore(dir, bestring.StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != db.Len() {
		t.Errorf("reopened store has %d entries, want %d", reopened.Len(), db.Len())
	}
	if got := hits(t, reopened, bestring.NewQuery(scenes[4]), bestring.WithK(1)); got[0].ID != bestring.ClassLabel(4) {
		t.Errorf("reopened store top result = %+v", got[0])
	}

	// Raster pipeline.
	p, err := bestring.NewPalette(img.Labels())
	if err != nil {
		t.Fatalf("NewPalette: %v", err)
	}
	raster, err := bestring.Render(img, p)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	var png bytes.Buffer
	if err := bestring.EncodePNG(&png, raster); err != nil {
		t.Fatalf("EncodePNG: %v", err)
	}
	decoded, err := bestring.DecodePNG(&png)
	if err != nil {
		t.Fatalf("DecodePNG: %v", err)
	}
	back, err := bestring.ExtractImage(decoded, p, img.XMax, img.YMax)
	if err != nil {
		t.Fatalf("ExtractImage: %v", err)
	}
	if len(back.Objects) != 3 {
		t.Errorf("extracted %d objects, want 3", len(back.Objects))
	}

	// ASCII art sanity.
	if art := bestring.ASCII(img, 24, 12); !strings.Contains(art, "A") {
		t.Error("ASCII art missing object A")
	}
}

func TestPublicIndexedAndTokens(t *testing.T) {
	ix, err := bestring.NewIndexed(bestring.Figure1Image())
	if err != nil {
		t.Fatalf("NewIndexed: %v", err)
	}
	if err := ix.Insert(bestring.Object{Label: "D", Box: bestring.NewRect(0, 0, 1, 1)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if ix.Len() != 4 {
		t.Errorf("Len = %d, want 4", ix.Len())
	}
	want := bestring.MustConvert(ix.Image())
	if !ix.BE().Equal(want) {
		t.Error("indexed BE diverged from rebuild")
	}

	// Token constructors and parsing.
	axis := bestring.Axis{
		bestring.DummyToken(), bestring.BeginToken("A"), bestring.EndToken("A"),
	}
	parsed, err := bestring.ParseBEString(axis.String() + " | " + axis.String())
	if err != nil {
		t.Fatalf("ParseBEString: %v", err)
	}
	if bestring.LCSLength(parsed.X, axis) != 3 {
		t.Error("LCSLength through facade broken")
	}
}

func TestPublicSpatialQueryAPI(t *testing.T) {
	db := bestring.NewDB()
	beach := bestring.NewImage(20, 20,
		bestring.Object{Label: "sun", Box: bestring.NewRect(14, 14, 18, 18)},
		bestring.Object{Label: "sea", Box: bestring.NewRect(0, 0, 20, 6)},
	)
	if err := db.Insert("beach", "", beach); err != nil {
		t.Fatal(err)
	}
	q, err := bestring.ParseQuery("sun above sea")
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if results := hits(t, db, bestring.NewMatchQuery(), bestring.WhereQuery(q)); len(results) != 1 || !results[0].Full {
		t.Errorf("WhereQuery = %+v", results)
	}
	corner := bestring.NewRect(13, 13, 19, 19) // holds the sun's box and nothing of the sea
	if results := hits(t, db, bestring.NewMatchQuery(), bestring.InRegionLabel(corner, "sun")); len(results) != 1 || results[0].ID != "beach" {
		t.Errorf("InRegionLabel(sun) = %+v", results)
	}
	if results := hits(t, db, bestring.NewMatchQuery(), bestring.InRegionLabel(corner, "sea")); len(results) != 0 {
		t.Errorf("InRegionLabel(sea) = %+v, want none", results)
	}
	if got := db.ImagesWithLabel("sea"); len(got) != 1 || got[0] != "beach" {
		t.Errorf("ImagesWithLabel = %v", got)
	}
	if err := db.BulkInsert(context.Background(), []bestring.BulkItem{
		{ID: "fig1", Image: bestring.Figure1Image()},
	}, 2); err != nil {
		t.Fatalf("BulkInsert: %v", err)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestPublicTransformsConsistent(t *testing.T) {
	img := bestring.Figure1Image()
	be := bestring.MustConvert(img)
	for _, tr := range bestring.AllTransforms {
		viaString := be.Apply(tr)
		viaImage := bestring.MustConvert(bestring.ApplyToImage(img, tr))
		if !viaString.Equal(viaImage) {
			t.Errorf("transform %v: string and image paths disagree", tr)
		}
	}
}

// TestReplicationNeedsDurability pins that both replication roles ask
// for a write-ahead log at run time: a volatile DB is refused with
// ErrNotDurable, a durable one is accepted.
func TestReplicationNeedsDurability(t *testing.T) {
	volatile := bestring.NewDB()
	if p, err := bestring.NewReplicationPrimary(volatile, 0); !errors.Is(err, bestring.ErrNotDurable) || p != nil {
		t.Fatalf("NewReplicationPrimary(NewDB()) = %v, %v; want nil, ErrNotDurable", p, err)
	}
	if f, err := bestring.NewReplicationFollower(volatile, "http://127.0.0.1:1", 0); !errors.Is(err, bestring.ErrNotDurable) || f != nil {
		t.Fatalf("NewReplicationFollower(NewDB()) = %v, %v; want nil, ErrNotDurable", f, err)
	}

	primary, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := bestring.NewReplicationPrimary(primary, 0); err != nil {
		t.Fatalf("NewReplicationPrimary(durable): %v", err)
	}
	replica, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := bestring.NewReplicationFollower(replica, "http://127.0.0.1:1", 0); err != nil {
		t.Fatalf("NewReplicationFollower(durable replica): %v", err)
	}
}
