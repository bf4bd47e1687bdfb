package imagedb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

func seedDB(t *testing.T, n int) (*DB, []core.Image) {
	t.Helper()
	db := New()
	g := workload.NewGenerator(workload.Config{Seed: 11, Vocabulary: 24})
	scenes := g.Dataset(n)
	for i, s := range scenes {
		if err := db.Insert(fmt.Sprintf("img%03d", i), fmt.Sprintf("scene %d", i), s); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return db, scenes
}

func TestInsertGetDelete(t *testing.T) {
	db := New()
	img := core.Figure1Image()
	if err := db.Insert("fig1", "figure 1", img); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	e, ok := db.Get("fig1")
	if !ok || e.Name != "figure 1" {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if !e.BE.Equal(core.MustConvert(img)) {
		t.Error("stored BE-string differs from conversion")
	}
	if err := db.Delete("fig1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if db.Len() != 0 {
		t.Error("Len after delete != 0")
	}
}

func TestInsertErrors(t *testing.T) {
	db := New()
	img := core.Figure1Image()
	if err := db.Insert("", "x", img); !errors.Is(err, ErrEmptyID) {
		t.Errorf("empty id: err = %v", err)
	}
	if err := db.Insert("a", "x", core.NewImage(5, 5)); err == nil {
		t.Error("invalid image accepted")
	}
	if err := db.Insert("a", "x", img); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("a", "y", img); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate id: err = %v", err)
	}
}

func TestDeleteMissing(t *testing.T) {
	db := New()
	if err := db.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := New()
	if err := db.Insert("fig1", "", core.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get("fig1")
	e.Image.Objects[0].Label = "mutated"
	e.BE.X[0] = core.BeginToken("Z")
	fresh, _ := db.Get("fig1")
	if fresh.Image.Objects[0].Label != "A" || fresh.BE.X[0].Label == "Z" {
		t.Error("Get exposed internal storage")
	}
}

func TestIDsInsertionOrder(t *testing.T) {
	db, _ := seedDB(t, 5)
	ids := db.IDs()
	for i, id := range ids {
		if want := fmt.Sprintf("img%03d", i); id != want {
			t.Errorf("ids[%d] = %q, want %q", i, id, want)
		}
	}
}

func TestObjectUpdate(t *testing.T) {
	db := New()
	if err := db.Insert("fig1", "", core.Figure1Image()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertObject("fig1", core.Object{Label: "D", Box: core.NewRect(0, 0, 1, 1)}); err != nil {
		t.Fatalf("InsertObject: %v", err)
	}
	e, _ := db.Get("fig1")
	if len(e.Image.Objects) != 4 {
		t.Errorf("objects = %d, want 4", len(e.Image.Objects))
	}
	if !e.BE.Equal(core.MustConvert(e.Image)) {
		t.Error("BE-string not reindexed after InsertObject")
	}
	if err := db.DeleteObject("fig1", "D"); err != nil {
		t.Fatalf("DeleteObject: %v", err)
	}
	e, _ = db.Get("fig1")
	if !e.BE.Equal(core.MustConvert(core.Figure1Image())) {
		t.Error("BE-string not restored after DeleteObject")
	}
	if err := db.DeleteObject("fig1", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object: err = %v", err)
	}
	if err := db.InsertObject("ghost", core.Object{Label: "D", Box: core.NewRect(0, 0, 1, 1)}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing image: err = %v", err)
	}
	// Rejected updates must not corrupt state.
	if err := db.InsertObject("fig1", core.Object{Label: "A", Box: core.NewRect(0, 0, 1, 1)}); err == nil {
		t.Error("duplicate label accepted")
	}
	e, _ = db.Get("fig1")
	if len(e.Image.Objects) != 3 {
		t.Error("failed update mutated the image")
	}
}

func TestSearchRanksExactMatchFirst(t *testing.T) {
	db, scenes := seedDB(t, 30)
	results, err := search(context.Background(), db, scenes[7], WithK(5))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d, want 5", len(results))
	}
	if results[0].ID != "img007" {
		t.Errorf("top result = %s (score %v), want img007", results[0].ID, results[0].Score)
	}
	if results[0].Score != 1 {
		t.Errorf("self score = %v, want 1", results[0].Score)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Error("results not sorted by score")
		}
	}
}

func TestSearchPartialQuery(t *testing.T) {
	db, scenes := seedDB(t, 30)
	g := workload.NewGenerator(workload.Config{Seed: 99})
	q := g.SubsetQuery(scenes[3], 4)
	results, err := search(context.Background(), db, q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != "img003" {
		t.Errorf("partial query top result = %s, want img003", results[0].ID)
	}
}

func TestSearchInvariantScorer(t *testing.T) {
	db, scenes := seedDB(t, 20)
	rotated := scenes[5].Rotate90CW()
	plain, err := search(context.Background(), db, rotated, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := search(context.Background(), db, rotated, WithK(1), WithScorer("invariant"))
	if err != nil {
		t.Fatal(err)
	}
	if inv[0].ID != "img005" || inv[0].Score != 1 {
		t.Errorf("invariant search top = %+v, want img005 @ 1.0", inv[0])
	}
	if plain[0].Score >= inv[0].Score && plain[0].ID == "img005" {
		t.Log("plain scorer found the rotated image too (possible for symmetric scenes)")
	}
}

func TestSearchTypeSimScorer(t *testing.T) {
	db, scenes := seedDB(t, 10)
	results, err := search(context.Background(), db, scenes[2], WithK(1), WithScorer("type2"))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != "img002" || results[0].Score != 1 {
		t.Errorf("type-2 search top = %+v, want img002 @ 1.0", results[0])
	}
}

func TestSearchMinScoreFilter(t *testing.T) {
	db, scenes := seedDB(t, 10)
	all, err := search(context.Background(), db, scenes[0])
	if err != nil {
		t.Fatal(err)
	}
	strict, err := search(context.Background(), db, scenes[0], WithMinScore(0.999))
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) >= len(all) {
		t.Errorf("MinScore did not filter: %d vs %d", len(strict), len(all))
	}
	for _, r := range strict {
		if r.Score < 0.999 {
			t.Errorf("result below threshold: %+v", r)
		}
	}
}

func TestSearchCancellation(t *testing.T) {
	db, scenes := seedDB(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search(ctx, db, scenes[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSearchInvalidQuery(t *testing.T) {
	db, _ := seedDB(t, 3)
	if _, err := search(context.Background(), db, core.NewImage(5, 5)); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestSearchEmptyDB(t *testing.T) {
	db := New()
	results, err := search(context.Background(), db, core.Figure1Image())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("results = %v, want empty", results)
	}
}

func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	db, scenes := seedDB(t, 40)
	g := workload.NewGenerator(workload.Config{Seed: 5})
	q := g.SubsetQuery(scenes[9], 3)
	var base []Result
	for _, workers := range []int{1, 2, 8} {
		got, err := search(context.Background(), db, q, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("parallelism %d: result count differs", workers)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d: result %d = %+v, want %+v", workers, i, got[i], base[i])
			}
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	db, scenes := seedDB(t, 20)
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch w % 3 {
				case 0:
					if _, err := search(context.Background(), db, scenes[i%len(scenes)], WithK(3)); err != nil {
						select {
						case errCh <- err:
						default:
						}
					}
				case 1:
					id := fmt.Sprintf("w%d-%d", w, i)
					if err := db.Insert(id, "", scenes[(i+w)%len(scenes)]); err != nil {
						select {
						case errCh <- err:
						default:
						}
					}
				default:
					db.Get("img000")
					db.IDs()
					db.Len()
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent use error: %v", err)
	default:
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, scenes := seedDB(t, 8)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), db.Len())
	}
	for _, id := range db.IDs() {
		a, _ := db.Get(id)
		b, ok := loaded.Get(id)
		if !ok || !a.BE.Equal(b.BE) || a.Name != b.Name {
			t.Errorf("entry %q differs after round trip", id)
		}
	}
	// The snapshot carries no index bytes: the loaded DB's posting runs
	// are rebuilt on install and it answers region queries like the
	// original.
	canvas := core.NewRect(0, 0, 1000, 1000)
	if got, want := regionIDs(t, loaded, canvas, ""), wantRegionIDs(db, canvas, ""); len(got) != 8 || !slices.Equal(got, want) {
		t.Errorf("loaded db region ids = %v, want %v", got, want)
	}
	label := scenes[0].Objects[0].Label // a labelled region reads that label's run
	if got, want := regionIDs(t, loaded, canvas, label), wantRegionIDs(db, canvas, label); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("loaded db region ids for %q = %v, want %v", label, got, want)
	}
	assertPostings(t, loaded)
}

// TestSaveMatchesWholeValueEncoding pins the snapshot format: Save
// streams entry by entry, and the bytes must be exactly what encoding
// the whole snapshot value with two-space indentation produces — for an
// empty database, a generated one, and ids and names that need escaping.
func TestSaveMatchesWholeValueEncoding(t *testing.T) {
	seeded, _ := seedDB(t, 8)
	odd := New()
	for _, id := range []string{"a\x00b", `<tag> & "quotes"`, "ünï\u2028cødé", "plain"} {
		if err := odd.Insert(id, "name of "+id, storeImage(len(id))); err != nil {
			t.Fatal(err)
		}
	}
	for name, db := range map[string]*DB{"empty": New(), "seeded": seeded, "odd ids": odd} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshotJSON{Version: snapshotVersion, Entries: db.current.Load().orderedEntries()}); err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, db.Save); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: Save wrote\n%s\nwant\n%s", name, got, want.Bytes())
		}
		if _, err := loadBytes(t, saveBytes(t, db.Save)); err != nil {
			t.Errorf("%s: Load of its own Save: %v", name, err)
		}
	}
}

func TestLoadRejectsCorruptedBE(t *testing.T) {
	db, _ := seedDB(t, 2)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored BE-string of one entry.
	text := strings.Replace(buf.String(), "icon", "ICON", 1)
	if _, err := loadBytes(t, []byte(text)); err == nil {
		t.Error("corrupted snapshot accepted")
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	if _, err := loadBytes(t, []byte(`{"version":99,"entries":[]}`)); err == nil {
		t.Error("unsupported version accepted")
	}
	if _, err := loadBytes(t, []byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}
