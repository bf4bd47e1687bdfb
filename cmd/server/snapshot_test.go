package main

import (
	"net/http"
	"strings"
	"testing"

	"bestring"
)

// TestFlagValidation pins the startup contract: a nonsensical flag is a
// one-line error before anything is opened, never undefined behavior
// deep in the engine.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative shards", []string{"-shards", "-1"}, "-shards"},
		{"negative parallelism", []string{"-parallelism", "-2"}, "-parallelism"},
		{"negative segment bytes", []string{"-segment-bytes", "-1"}, "-segment-bytes"},
		{"negative count", []string{"-count", "-5"}, "-count"},
		{"zero commit batch", []string{"-commit-batch", "0"}, "-commit-batch"},
		{"negative commit batch", []string{"-commit-batch", "-4"}, "-commit-batch"},
		{"unknown fsync", []string{"-fsync", "sometimes"}, "fsync"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want validation error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want mention of %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestHealthSnapshotFields pins the operator surface: /healthz reports
// the snapshot epoch, the entry count and the goroutine count, so writer
// progress is observable against published read state.
func TestHealthSnapshotFields(t *testing.T) {
	rec := do(t, testMux(t), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		OK         bool   `json:"ok"`
		Epoch      uint64 `json:"epoch"`
		Entries    int    `json:"entries"`
		Goroutines int    `json:"goroutines"`
	}
	decode(t, rec, &out)
	if !out.OK {
		t.Fatalf("health = %+v", out)
	}
	if out.Epoch == 0 {
		t.Error("healthz reports no snapshot epoch")
	}
	if out.Entries != 10 {
		t.Errorf("entries = %d, want 10", out.Entries)
	}
	if out.Goroutines <= 0 {
		t.Errorf("goroutines = %d", out.Goroutines)
	}
}

// TestV1ConsistentBatch pins the consistent flag: all queries of a batch
// read one pinned epoch, the response reports it, and every per-query
// epoch matches. A sub-query setting consistent itself is rejected.
func TestV1ConsistentBatch(t *testing.T) {
	mux, db := spatialMux(t, 24)

	img, _ := db.Get("img000")
	req := map[string]any{
		"consistent": true,
		"queries": []map[string]any{
			{"image": img.Image, "k": 3},
			{"dsl": "tag left-of anchor", "k": 5},
			{"image": img.Image, "k": 2, "scorer": "symbols"},
		},
	}
	rec := do(t, mux, http.MethodPost, "/api/v1/search", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
	}
	var out struct {
		Epoch   uint64 `json:"epoch"`
		Results []struct {
			Epoch uint64              `json:"epoch"`
			Hits  []bestring.QueryHit `json:"hits"`
			Error string              `json:"error"`
		} `json:"results"`
	}
	decode(t, rec, &out)
	if out.Epoch == 0 {
		t.Fatal("consistent batch response reports no epoch")
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("query %d failed: %s", i, r.Error)
		}
		if r.Epoch != out.Epoch {
			t.Errorf("query %d ran on epoch %d, batch pinned %d", i, r.Epoch, out.Epoch)
		}
		if len(r.Hits) == 0 {
			t.Errorf("query %d returned no hits", i)
		}
	}

	rec = do(t, mux, http.MethodPost, "/api/v1/search", map[string]any{
		"queries": []map[string]any{{"dsl": "tag left-of anchor", "consistent": true}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("per-query consistent accepted: %d", rec.Code)
	}
}

// TestV1ConsistentCursorKeepsPin pins the precedence rule: a cursor's
// own epoch pin beats the consistent flag's fresh pin, so a paginated
// walk continued with consistent:true still reads the version its
// first page ran on.
func TestV1ConsistentCursorKeepsPin(t *testing.T) {
	mux, db := spatialMux(t, 24)
	img, _ := db.Get("img000")

	rec := do(t, mux, http.MethodPost, "/api/v1/search",
		map[string]any{"image": img.Image, "k": 5, "consistent": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("page 1: %d (%s)", rec.Code, rec.Body.String())
	}
	var p1 struct {
		Epoch      uint64 `json:"epoch"`
		NextCursor string `json:"nextCursor"`
	}
	decode(t, rec, &p1)
	if p1.NextCursor == "" {
		t.Fatal("page 1 has no cursor")
	}

	// Advance the store between pages.
	if err := db.Insert("between-pages", "", img.Image); err != nil {
		t.Fatal(err)
	}

	rec = do(t, mux, http.MethodPost, "/api/v1/search",
		map[string]any{"image": img.Image, "k": 5, "consistent": true, "cursor": p1.NextCursor})
	if rec.Code != http.StatusOK {
		t.Fatalf("page 2: %d (%s)", rec.Code, rec.Body.String())
	}
	var p2 struct {
		Epoch uint64 `json:"epoch"`
	}
	decode(t, rec, &p2)
	if p2.Epoch != p1.Epoch {
		t.Fatalf("page 2 ran on epoch %d, want the cursor's pin %d", p2.Epoch, p1.Epoch)
	}
}

// TestV1SingleQueryEpoch pins that every v1 response identifies the
// version it read, consistent or not.
func TestV1SingleQueryEpoch(t *testing.T) {
	mux, _ := spatialMux(t, 12)
	rec := do(t, mux, http.MethodPost, "/api/v1/search",
		map[string]any{"dsl": "tag left-of anchor", "k": 3, "consistent": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	decode(t, rec, &out)
	if out.Epoch == 0 {
		t.Fatal("single consistent query reports no epoch")
	}
}
