package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bestring"
)

// seeded is the in-memory database `server -count count -seed seed
// -shards shards` serves.
func seeded(count int, seed int64, shards int) (*bestring.DB, error) {
	db := bestring.NewDBSharded(shards)
	return db, seedSynthetic(db, count, seed)
}

func testMux(t *testing.T) http.Handler {
	t.Helper()
	db, err := seeded(10, 3, 0)
	if err != nil {
		t.Fatalf("seeded: %v", err)
	}
	return newMux(db)
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v (body %q)", err, rec.Body.String())
	}
}

// v1Response is the POST /api/v1/search response shape (one page, or one
// entry of a batch).
type v1Response struct {
	Hits       []bestring.QueryHit `json:"hits"`
	Total      int                 `json:"total"`
	NextCursor string              `json:"nextCursor"`
	Error      string              `json:"error"`
	Status     int                 `json:"status"`
}

// search posts one query to the only read door and decodes the page,
// failing the test unless the server answers 200.
func search(t *testing.T, h http.Handler, body map[string]any) v1Response {
	t.Helper()
	rec := do(t, h, http.MethodPost, "/api/v1/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("search %v: status = %d: %s", body, rec.Code, rec.Body.String())
	}
	var out v1Response
	decode(t, rec, &out)
	return out
}

func TestHealth(t *testing.T) {
	rec := do(t, testMux(t), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		OK        bool `json:"ok"`
		Images    int  `json:"images"`
		LabelDict int  `json:"labelDict"`
	}
	decode(t, rec, &out)
	if !out.OK || out.Images != 10 || out.LabelDict == 0 {
		t.Errorf("health = %+v", out)
	}
}

func TestImageCRUD(t *testing.T) {
	mux := testMux(t)
	img := bestring.Figure1Image()

	rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{
		"id": "fig1", "name": "figure one", "image": img,
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("insert status = %d: %s", rec.Code, rec.Body.String())
	}
	// Duplicate -> 409.
	rec = do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{
		"id": "fig1", "image": img,
	})
	if rec.Code != http.StatusConflict {
		t.Errorf("duplicate status = %d", rec.Code)
	}
	// Fetch.
	rec = do(t, mux, http.MethodGet, "/api/v1/images/fig1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get status = %d", rec.Code)
	}
	var entry bestring.Entry
	decode(t, rec, &entry)
	if entry.Name != "figure one" || !entry.BE.Equal(bestring.Figure1BEString()) {
		t.Errorf("entry = %+v", entry)
	}
	// List contains it.
	rec = do(t, mux, http.MethodGet, "/api/v1/images", nil)
	var list struct {
		IDs []string `json:"ids"`
	}
	decode(t, rec, &list)
	if len(list.IDs) != 11 {
		t.Errorf("ids = %d, want 11", len(list.IDs))
	}
	// Delete.
	rec = do(t, mux, http.MethodDelete, "/api/v1/images/fig1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status = %d", rec.Code)
	}
	if rec := do(t, mux, http.MethodGet, "/api/v1/images/fig1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("get after delete = %d", rec.Code)
	}
	if rec := do(t, mux, http.MethodDelete, "/api/v1/images/fig1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("double delete = %d", rec.Code)
	}
}

func TestInsertErrors(t *testing.T) {
	mux := testMux(t)
	rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{
		"id": "bad", "image": bestring.NewImage(5, 5),
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid image status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/images", bytes.NewBufferString("{"))
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed json status = %d", rec2.Code)
	}
}

func TestSearchEndpoint(t *testing.T) {
	db, err := seeded(15, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(db)
	// Use a stored image as the query: it must rank first at score 1.
	entry, ok := db.Get("scene0006")
	if !ok {
		t.Fatal("scene0006 missing")
	}
	for _, scorer := range []string{"be", "invariant", "type2"} {
		out := search(t, mux, map[string]any{"image": entry.Image, "k": 3, "scorer": scorer})
		if len(out.Hits) != 3 || out.Hits[0].ID != "scene0006" || out.Hits[0].Score != 1 {
			t.Errorf("scorer %s: hits = %+v", scorer, out.Hits)
		}
	}
	// Unknown scorer.
	rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"image": entry.Image, "scorer": "cosine",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown scorer status = %d", rec.Code)
	}
}

func TestSearchDSLEndpoint(t *testing.T) {
	db, err := seeded(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	beach := bestring.NewImage(20, 20,
		bestring.Object{Label: "sun", Box: bestring.NewRect(14, 14, 18, 18)},
		bestring.Object{Label: "sea", Box: bestring.NewRect(0, 0, 20, 6)},
	)
	if err := db.Insert("beach", "", beach); err != nil {
		t.Fatal(err)
	}
	mux := newMux(db)
	out := search(t, mux, map[string]any{"dsl": "sun above sea", "k": 5})
	if len(out.Hits) != 1 || out.Hits[0].ID != "beach" || !out.Hits[0].Full {
		t.Errorf("hits = %+v", out.Hits)
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"dsl": "bogus"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad query status = %d", rec.Code)
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"dsl": "sun above sea", "k": -1}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad k status = %d", rec.Code)
	}
}

// TestRegionEndpoint covers the region filter and the documented way to
// the icon boxes the retired GET /api/region listed: the query names the
// images, GET /api/v1/images/{id} carries their boxes.
func TestRegionEndpoint(t *testing.T) {
	db, err := seeded(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("fig1", "", bestring.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	mux := newMux(db)
	region := bestring.NewRect(0, 0, 6, 6)
	out := search(t, mux, map[string]any{"region": region})
	if len(out.Hits) != 1 || out.Hits[0].ID != "fig1" {
		t.Fatalf("hits = %+v, want fig1", out.Hits)
	}
	var entry bestring.Entry
	decode(t, do(t, mux, http.MethodGet, "/api/v1/images/"+out.Hits[0].ID, nil), &entry)
	inRegion := 0
	for _, o := range entry.Image.Objects {
		if o.Box.Intersects(region) {
			inRegion++
		}
	}
	if inRegion != 3 {
		t.Errorf("entry boxes in region = %d of %+v, want 3 icons", inRegion, entry.Image.Objects)
	}
	if out := search(t, mux, map[string]any{"region": region, "regionLabel": "C"}); len(out.Hits) != 1 {
		t.Errorf("label-filtered hits = %+v", out.Hits)
	}
	if out := search(t, mux, map[string]any{"region": region, "regionLabel": "Z"}); len(out.Hits) != 0 {
		t.Errorf("absent-label hits = %+v, want none", out.Hits)
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"region": bestring.Rect{X0: 5, Y0: 5, X1: 1, Y1: 1}}); rec.Code != http.StatusBadRequest {
		t.Errorf("inverted region status = %d", rec.Code)
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"region": map[string]any{"x0": "a", "y0": 0, "x1": 6, "y1": 6}}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad coord status = %d", rec.Code)
	}
}

// TestOpenDBVariants pins the in-memory databases a server starts with
// when it has no -data-dir: empty without -count, -count scenes with it,
// and -count never adds to a database that already holds images.
func TestOpenDBVariants(t *testing.T) {
	db, err := seeded(0, 0, 0)
	if err != nil || db.Len() != 0 {
		t.Errorf("empty seeded: %v, len %d", err, db.Len())
	}
	db, err = seeded(5, 2, 3)
	if err != nil || db.Len() != 5 || db.ShardCount() != 3 {
		t.Fatalf("seeded(5): %v, len %d, shards %d", err, db.Len(), db.ShardCount())
	}
	if err := seedSynthetic(db, 9, 2); err != nil || db.Len() != 5 {
		t.Errorf("reseed of a non-empty database: %v, len %d", err, db.Len())
	}
}

func TestSearchEndpointEngineKnobs(t *testing.T) {
	db, err := seeded(15, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(db)
	entry, ok := db.Get("scene0006")
	if !ok {
		t.Fatal("scene0006 missing")
	}
	// A high minScore keeps only the exact match.
	out := search(t, mux, map[string]any{
		"image": entry.Image, "k": 10, "minScore": 0.999,
		"parallelism": 2, "labelPrefilter": true,
	})
	if len(out.Hits) != 1 || out.Hits[0].ID != "scene0006" || out.Hits[0].Score != 1 {
		t.Errorf("minScore hits = %+v, want only scene0006 @ 1.0", out.Hits)
	}
	// Negative parallelism is rejected.
	rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"image": entry.Image, "parallelism": -1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("negative parallelism status = %d", rec.Code)
	}
}

func TestHealthReportsShards(t *testing.T) {
	db, err := seeded(4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, newMux(db), http.MethodGet, "/healthz", nil)
	var out struct {
		OK     bool `json:"ok"`
		Images int  `json:"images"`
		Shards int  `json:"shards"`
	}
	decode(t, rec, &out)
	if !out.OK || out.Images != 4 || out.Shards != 3 {
		t.Errorf("health = %+v, want 4 images over 3 shards", out)
	}
}

// spatialMux builds a server over a corpus where the composed filters
// have known selectivity: every third image satisfies "tag left-of
// anchor" and every fourth has a "probe" icon inside (48,48)-(60,60).
func spatialMux(t *testing.T, n int) (http.Handler, *bestring.DB) {
	t.Helper()
	db := bestring.NewDB()
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{Seed: 9, Vocabulary: 12})
	for i := 0; i < n; i++ {
		img := gen.Scene()
		if i%3 == 0 {
			img = img.WithObject(bestring.Object{Label: "tag", Box: bestring.NewRect(1, 1, 3, 3)}).
				WithObject(bestring.Object{Label: "anchor", Box: bestring.NewRect(10, 1, 12, 3)})
		}
		if i%4 == 0 {
			img = img.WithObject(bestring.Object{Label: "probe", Box: bestring.NewRect(50, 50, 55, 55)})
		}
		if err := db.Insert(fmt.Sprintf("img%03d", i), "", img); err != nil {
			t.Fatal(err)
		}
	}
	return newMux(db), db
}

// TestSearchNegativeK pins that a negative k is never "all results": it
// is a 400 on its own, and inside a batch a per-entry 400 that leaves
// the sibling queries answered.
func TestSearchNegativeK(t *testing.T) {
	db, err := seeded(5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(db)
	entry, _ := db.Get("scene0001")
	rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"image": entry.Image, "k": -1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("negative k status = %d, want 400", rec.Code)
	}
	rec = do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"queries": []map[string]any{{"image": entry.Image, "k": -1}, {"image": entry.Image, "k": 1}},
	})
	var out struct {
		Results []v1Response `json:"results"`
	}
	decode(t, rec, &out)
	if rec.Code != http.StatusOK || len(out.Results) != 2 ||
		out.Results[0].Status != http.StatusBadRequest || len(out.Results[1].Hits) != 1 {
		t.Errorf("batch with a negative k: status %d, results %+v", rec.Code, out.Results)
	}
}

// TestV1SearchCombined is the acceptance scenario: image + DSL + region
// in one request returns correctly ranked, paginated results.
func TestV1SearchCombined(t *testing.T) {
	mux, db := spatialMux(t, 48)
	entry, ok := db.Get("img012") // satisfies the DSL and the region
	if !ok {
		t.Fatal("img012 missing")
	}
	region := bestring.NewRect(48, 48, 60, 60)
	base := map[string]any{
		"image": entry.Image, "dsl": "tag left-of anchor",
		"region": region, "regionLabel": "probe",
	}

	rec := do(t, mux, http.MethodPost, "/api/v1/search", base)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var full v1Response
	decode(t, rec, &full)
	// Images at i%12 == 0 satisfy both filters: 48/12 = 4 candidates.
	if full.Total != 4 || len(full.Hits) != 4 {
		t.Fatalf("combined total = %d, hits = %d, want 4", full.Total, len(full.Hits))
	}
	if full.Hits[0].ID != "img012" || full.Hits[0].Score != 1 || !full.Hits[0].Full {
		t.Fatalf("top hit = %+v, want img012 @ 1.0 full", full.Hits[0])
	}
	for i := 1; i < len(full.Hits); i++ {
		prev, cur := full.Hits[i-1], full.Hits[i]
		if cur.Score > prev.Score || (cur.Score == prev.Score && cur.ID < prev.ID) {
			t.Fatalf("hits out of rank order: %+v before %+v", prev, cur)
		}
	}

	// Page through the same query with k=3: the concatenation must
	// reproduce the one-shot ranking with no duplicates.
	var walked []bestring.QueryHit
	cursor := ""
	for {
		req := map[string]any{}
		for k, v := range base {
			req[k] = v
		}
		req["k"] = 3
		if cursor != "" {
			req["cursor"] = cursor
		}
		rec := do(t, mux, http.MethodPost, "/api/v1/search", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("page status = %d: %s", rec.Code, rec.Body.String())
		}
		var page v1Response
		decode(t, rec, &page)
		walked = append(walked, page.Hits...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(full.Hits) {
		t.Fatalf("walked %d hits, want %d", len(walked), len(full.Hits))
	}
	for i := range walked {
		if walked[i] != full.Hits[i] {
			t.Fatalf("walked[%d] = %+v, want %+v", i, walked[i], full.Hits[i])
		}
	}
}

// TestV1SearchModes covers the non-combined single-query modes: DSL
// only (ranked by satisfied fraction) and region only (id order).
func TestV1SearchModes(t *testing.T) {
	mux, _ := spatialMux(t, 24)
	rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"dsl": "tag left-of anchor",
	})
	var out v1Response
	decode(t, rec, &out)
	if rec.Code != http.StatusOK || out.Total != 8 { // every third of 24
		t.Fatalf("dsl-only status %d total %d, want 200/8: %s", rec.Code, out.Total, rec.Body.String())
	}
	for _, h := range out.Hits {
		if h.Score != 1 || !h.Full || h.Where != 1 {
			t.Fatalf("dsl-only hit = %+v", h)
		}
	}

	rec = do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"region": bestring.NewRect(48, 48, 60, 60), "regionLabel": "probe",
	})
	decode(t, rec, &out)
	if rec.Code != http.StatusOK || out.Total != 6 { // every fourth of 24
		t.Fatalf("region-only status %d total %d, want 200/6: %s", rec.Code, out.Total, rec.Body.String())
	}
	for i := 1; i < len(out.Hits); i++ {
		if out.Hits[i-1].ID >= out.Hits[i].ID {
			t.Fatalf("region-only hits not in id order: %+v", out.Hits)
		}
	}
}

// TestV1Batch checks a batch runs every sub-query and isolates per-query
// failures.
func TestV1Batch(t *testing.T) {
	mux, db := spatialMux(t, 24)
	entry, _ := db.Get("img000")
	rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"queries": []map[string]any{
			{"image": entry.Image, "k": 2},
			{"dsl": "tag left-of anchor", "k": 3},
			{"scorer": "no-such-scorer", "dsl": "tag left-of anchor"},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results []v1Response `json:"results"`
	}
	decode(t, rec, &out)
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(out.Results))
	}
	if len(out.Results[0].Hits) != 2 || out.Results[0].Hits[0].ID != "img000" {
		t.Errorf("batch[0] = %+v", out.Results[0])
	}
	if len(out.Results[1].Hits) != 3 || out.Results[1].Error != "" {
		t.Errorf("batch[1] = %+v", out.Results[1])
	}
	if out.Results[2].Error == "" || out.Results[2].Status != http.StatusBadRequest {
		t.Errorf("batch[2] = %+v, want per-query 400 error", out.Results[2])
	}
}

// TestV1StatusCodes sweeps the v1 handler's client-error paths.
func TestV1StatusCodes(t *testing.T) {
	mux, db := spatialMux(t, 6)
	entry, _ := db.Get("img000")
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"empty spec", map[string]any{}, http.StatusBadRequest},
		{"unknown scorer", map[string]any{"image": entry.Image, "scorer": "cosine"}, http.StatusBadRequest},
		{"negative k", map[string]any{"image": entry.Image, "k": -2}, http.StatusBadRequest},
		{"negative offset", map[string]any{"image": entry.Image, "offset": -1}, http.StatusBadRequest},
		{"bad cursor", map[string]any{"image": entry.Image, "cursor": "???"}, http.StatusBadRequest},
		{"bad dsl", map[string]any{"dsl": "tag sideways anchor"}, http.StatusBadRequest},
		{"bad wheremin", map[string]any{"dsl": "tag left-of anchor", "whereMin": 7}, http.StatusBadRequest},
		{"v0 field name", map[string]any{"image": entry.Image, "method": "invariant"}, http.StatusBadRequest},
		{"regionLabel without region", map[string]any{"image": entry.Image, "regionLabel": "probe"}, http.StatusBadRequest},
		{"batch plus top-level", map[string]any{
			"dsl": "tag left-of anchor", "queries": []map[string]any{{"dsl": "tag left-of anchor"}},
		}, http.StatusBadRequest},
		{"nested batch", map[string]any{
			"queries": []map[string]any{{"queries": []map[string]any{{"dsl": "x left-of y"}}}},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := do(t, mux, http.MethodPost, "/api/v1/search", tc.body); rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Malformed JSON.
	req := httptest.NewRequest(http.MethodPost, "/api/v1/search", bytes.NewBufferString("{"))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed json status = %d", rec.Code)
	}
}

// TestBodyLimit pins the MaxBytesReader satellite: oversized JSON bodies
// are rejected with 413, on the insert route and the search route.
func TestBodyLimit(t *testing.T) {
	mux, _ := spatialMux(t, 1)
	huge := bytes.Repeat([]byte("x"), maxBodyBytes+1024)
	for _, path := range []string{"/api/v1/images", "/api/v1/search"} {
		body, _ := json.Marshal(map[string]any{"name": string(huge)})
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body status = %d, want 413", path, rec.Code)
		}
	}
}

// TestDSLCancellationStatus pins the error-class satellite: a request
// whose context is already cancelled surfaces as a client-side 499, not
// a 500.
func TestDSLCancellationStatus(t *testing.T) {
	mux, _ := spatialMux(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(map[string]any{"dsl": "tag left-of anchor"})
	req := httptest.NewRequest(http.MethodPost, "/api/v1/search", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled v1 status = %d, want %d (%s)", rec.Code, statusClientClosedRequest, rec.Body.String())
	}
}

// TestRetiredRoutesGone pins the one-door route set: every retired v0
// pattern answers 404/405 and is counted under route="other", and the
// v1 twin README's "retired entry points" table names for each returns
// the documented shape.
func TestRetiredRoutesGone(t *testing.T) {
	db := bestring.NewDB()
	beach := bestring.NewImage(20, 20,
		bestring.Object{Label: "sun", Box: bestring.NewRect(14, 14, 18, 18)},
		bestring.Object{Label: "sea", Box: bestring.NewRect(0, 0, 20, 6)},
	)
	if err := db.Insert("beach", "", beach); err != nil {
		t.Fatal(err)
	}
	reg := bestring.NewMetricsRegistry()
	mux := newServerMux(muxConfig{db: db, metrics: reg})

	retired := []struct{ method, path string }{
		{http.MethodGet, "/api/images"},
		{http.MethodPost, "/api/images"},
		{http.MethodGet, "/api/images/beach"},
		{http.MethodDelete, "/api/images/beach"},
		{http.MethodPost, "/api/search"},
		{http.MethodGet, "/api/search/dsl?q=sun+above+sea"},
		{http.MethodGet, "/api/region?x0=0&y0=0&x1=20&y1=20"},
		{http.MethodGet, "/api/v1/search/dsl?q=sun+above+sea"},
		{http.MethodGet, "/api/v1/region?x0=0&y0=0&x1=20&y1=20"},
	}
	for _, r := range retired {
		rec := do(t, mux, r.method, r.path, map[string]any{"id": "x", "image": beach})
		if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 404 or 405", r.method, r.path, rec.Code)
		}
		if got := routeLabel(httptest.NewRequest(r.method, r.path, nil).URL.Path); got != "other" {
			t.Errorf("%s %s labelled %q, want other", r.method, r.path, got)
		}
	}
	if !db.Has("beach") || db.Len() != 1 {
		t.Fatalf("a retired route mutated the database: %v", db.IDs())
	}

	// The v1 twins, row by row.
	ranked := search(t, mux, map[string]any{"image": beach, "scorer": "be"})
	if len(ranked.Hits) != 1 || ranked.Hits[0].ID != "beach" || ranked.Hits[0].Score != 1 || ranked.Total != 1 {
		t.Errorf("ranked twin = %+v", ranked)
	}
	dsl := search(t, mux, map[string]any{"dsl": "sun above sea", "k": 5})
	if len(dsl.Hits) != 1 || !dsl.Hits[0].Full || dsl.Hits[0].Where != 1 {
		t.Errorf("dsl twin = %+v", dsl)
	}
	region := search(t, mux, map[string]any{"region": bestring.NewRect(13, 13, 19, 19), "regionLabel": "sun"})
	if len(region.Hits) != 1 || region.Hits[0].ID != "beach" {
		t.Errorf("region twin = %+v", region)
	}
	var list struct {
		IDs []string `json:"ids"`
	}
	decode(t, do(t, mux, http.MethodGet, "/api/v1/images", nil), &list)
	if len(list.IDs) != 1 || list.IDs[0] != "beach" {
		t.Errorf("v1 images = %+v", list)
	}
	var entry bestring.Entry
	decode(t, do(t, mux, http.MethodGet, "/api/v1/images/beach", nil), &entry)
	if len(entry.Image.Objects) != 2 || len(entry.BE.X) == 0 {
		t.Errorf("v1 image entry = %+v", entry)
	}

	// The exposition: retired paths pooled under "other", the v1 routes
	// under the label values they have always had.
	text := do(t, mux, http.MethodGet, "/metrics", nil).Body.String()
	for _, want := range []string{
		`bestring_http_requests_total{code="404",route="other"}`,
		`bestring_http_requests_total{code="200",route="/api/search"} 3`,
		`bestring_http_requests_total{code="200",route="/api/images"} 1`,
		`bestring_http_requests_total{code="200",route="/api/images/{id}"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	for _, gone := range []string{`route="/api/search/dsl"`, `route="/api/region"`} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}
}

// TestStoreBackedAPI runs the same mux over a durable store: mutations
// travel through the WAL, /healthz exposes the durable stats, and a
// reopened store serves what the API acknowledged.
func TestStoreBackedAPI(t *testing.T) {
	dir := t.TempDir()
	s, err := bestring.OpenStore(dir, bestring.StoreOptions{Fsync: bestring.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(s)
	img := map[string]any{
		"xmax": 6, "ymax": 6,
		"objects": []map[string]any{
			{"label": "A", "box": map[string]int{"x0": 0, "y0": 0, "x1": 2, "y1": 2}},
			{"label": "B", "box": map[string]int{"x0": 3, "y0": 3, "x1": 5, "y1": 5}},
		},
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{"id": "durable1", "image": img}); rec.Code != http.StatusCreated {
		t.Fatalf("insert status = %d (%s)", rec.Code, rec.Body.String())
	}
	// Duplicate still maps to 409 through the store.
	if rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{"id": "durable1", "image": img}); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate status = %d", rec.Code)
	}
	rec := do(t, mux, http.MethodGet, "/healthz", nil)
	var health struct {
		OK      bool `json:"ok"`
		Images  int  `json:"images"`
		Durable bool `json:"durable"`
		WAL     struct {
			Segments int    `json:"segments"`
			LastLSN  uint64 `json:"lastLSN"`
			Fsync    string `json:"fsync"`
		} `json:"wal"`
		Commit struct {
			Enabled   bool   `json:"enabled"`
			Window    string `json:"window"`
			Groups    uint64 `json:"groups"`
			Mutations uint64 `json:"mutations"`
		} `json:"commit"`
	}
	decode(t, rec, &health)
	if !health.OK || !health.Durable || health.Images != 1 ||
		health.WAL.LastLSN != 1 || health.WAL.Fsync != "always" {
		t.Fatalf("health = %+v", health)
	}
	// The group-commit counters are on the operator surface: one accepted
	// insert means one group of one mutation so far.
	if !health.Commit.Enabled || health.Commit.Window == "" ||
		health.Commit.Groups != 1 || health.Commit.Mutations != 1 {
		t.Fatalf("health commit = %+v", health.Commit)
	}
	// The composable query endpoint works over the store.
	if rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"image": img, "k": 5}); rec.Code != http.StatusOK {
		t.Fatalf("v1 search status = %d (%s)", rec.Code, rec.Body.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := bestring.OpenStore(dir, bestring.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec = do(t, newMux(s2), http.MethodGet, "/api/v1/images/durable1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered get status = %d", rec.Code)
	}
}

// TestMutationStatusCodes pins the write handlers' error classes under
// a live mux: a missing id is the client's 404 and a duplicate its 409,
// but a store closed underneath the server is a 503 on delete, insert
// and import alike — a server-side fault must never read "not found" or
// "bad request".
func TestMutationStatusCodes(t *testing.T) {
	s, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(s)
	insert := map[string]any{"id": "kept", "image": sceneBody}
	if rec := do(t, mux, http.MethodPost, "/api/v1/images", insert); rec.Code != http.StatusCreated {
		t.Fatalf("insert status = %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, mux, http.MethodDelete, "/api/v1/images/ghost", nil); rec.Code != http.StatusNotFound {
		t.Errorf("delete of a missing id = %d, want 404", rec.Code)
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/images", insert); rec.Code != http.StatusConflict {
		t.Errorf("duplicate insert = %d, want 409", rec.Code)
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{"id": "bad", "image": bestring.NewImage(5, 5)}); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid image = %d, want 400", rec.Code)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, mux, http.MethodDelete, "/api/v1/images/kept", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("delete on a closed store = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, mux, http.MethodPost, "/api/v1/images", map[string]any{"id": "late", "image": sceneBody}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("insert on a closed store = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if rec := postStream(t, mux, "/api/v1/import", ndjsonBody(2)); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("import on a closed store = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	// Reads keep working against the last published version.
	if rec := do(t, mux, http.MethodGet, "/api/v1/images/kept", nil); rec.Code != http.StatusOK {
		t.Errorf("get on a closed store = %d, want 200", rec.Code)
	}

	// The classes no live store produces on demand, straight through the
	// classifier: the fallback is the caller's, the sentinels are not.
	for _, tc := range []struct {
		err      error
		fallback int
		want     int
	}{
		{errors.New("wal: write failed"), http.StatusInternalServerError, http.StatusInternalServerError},
		{errors.New("image has no objects"), http.StatusBadRequest, http.StatusBadRequest},
		{fmt.Errorf("import chunk 3: %w", bestring.ErrRecordTooLarge), http.StatusBadRequest, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("delete %q: %w", "x", bestring.ErrNotFound), http.StatusInternalServerError, http.StatusNotFound},
	} {
		if got := mutationStatus(tc.err, tc.fallback); got != tc.want {
			t.Errorf("mutationStatus(%v, %d) = %d, want %d", tc.err, tc.fallback, got, tc.want)
		}
	}
}

// TestV1SearchDebugStages pins the pruning-observability surface:
// "debug": true adds the per-stage candidate counts to the response
// (and to every sub-response of a batch), plain requests omit them, and
// /healthz reports the cumulative filter-and-refine counters.
func TestV1SearchDebugStages(t *testing.T) {
	db, err := seeded(30, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(db)
	img := bestring.Figure1Image()

	rec := do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"image": img, "k": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
	}
	var plain struct {
		Stages *bestring.QueryStages `json:"stages"`
	}
	decode(t, rec, &plain)
	if plain.Stages != nil {
		t.Fatalf("plain request leaked stage counts: %+v", plain.Stages)
	}

	rec = do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{"image": img, "k": 5, "debug": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("debug status = %d (%s)", rec.Code, rec.Body.String())
	}
	var dbg struct {
		Hits   []bestring.QueryHit   `json:"hits"`
		Stages *bestring.QueryStages `json:"stages"`
	}
	decode(t, rec, &dbg)
	if dbg.Stages == nil {
		t.Fatalf("debug request returned no stage counts (%s)", rec.Body.String())
	}
	if dbg.Stages.Narrowed != 30 || dbg.Stages.Evaluated+dbg.Stages.Pruned != dbg.Stages.Bounded {
		t.Fatalf("incoherent stage counts %+v", dbg.Stages)
	}

	rec = do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"debug":   true,
		"queries": []map[string]any{{"image": img, "k": 3}, {"image": img, "k": 3, "scorer": "invariant"}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", rec.Code, rec.Body.String())
	}
	var batch struct {
		Results []struct {
			Stages *bestring.QueryStages `json:"stages"`
		} `json:"results"`
	}
	decode(t, rec, &batch)
	for i, r := range batch.Results {
		if r.Stages == nil {
			t.Fatalf("batch result %d missing stage counts (%s)", i, rec.Body.String())
		}
	}

	rec = do(t, mux, http.MethodGet, "/healthz", nil)
	var health struct {
		Search bestring.SearchStats `json:"search"`
	}
	decode(t, rec, &health)
	if health.Search.Queries < 4 || health.Search.Evaluated == 0 {
		t.Fatalf("healthz search counters not cumulative: %+v", health.Search)
	}
}
