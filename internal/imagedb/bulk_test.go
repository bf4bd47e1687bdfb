package imagedb

import (
	"context"
	"errors"
	"slices"
	"testing"

	"bestring/internal/core"
)

// TestBulkInsertAllOrNothingOnConversionFailure pins the documented
// BulkInsert contract: a conversion failure in the MIDDLE of a batch
// leaves the database exactly as it was — no entries, no posting-run
// residue, nothing a region query can find — even though earlier items
// of the batch converted fine.
func TestBulkInsertAllOrNothingOnConversionFailure(t *testing.T) {
	db := New()
	if err := db.Insert("pre", "", storeImage(0)); err != nil {
		t.Fatal(err)
	}
	items := []BulkItem{
		{ID: "ok0", Image: storeImage(1)},
		{ID: "ok1", Image: storeImage(2)},
		{ID: "broken", Image: core.Image{XMax: 4, YMax: 4}}, // no objects: Convert fails
		{ID: "ok2", Image: storeImage(3)},
	}
	err := db.BulkInsert(context.Background(), items, 2)
	if err == nil {
		t.Fatal("expected conversion failure")
	}
	if !errors.Is(err, core.ErrEmptyImage) {
		t.Fatalf("error should carry the conversion cause, got %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len=%d after failed batch, want 1", db.Len())
	}
	for _, id := range []string{"ok0", "ok1", "ok2", "broken"} {
		if _, ok := db.Get(id); ok {
			t.Fatalf("item %q leaked into the database", id)
		}
	}
	// No index residue: the labels of the good items resolve to nothing.
	if ids := db.ImagesWithLabel("B1"); len(ids) != 0 {
		t.Fatalf("label index residue: %v", ids)
	}
	// Only the pre-existing image may answer a region query, and every
	// posting run must name it alone.
	if ids := regionIDs(t, db, core.NewRect(0, 0, 12, 12), ""); !slices.Equal(ids, []string{"pre"}) {
		t.Fatalf("region residue: %v", ids)
	}
	assertPostings(t, db)
}

// TestBulkInsertAllOrNothingOnCollision pins the same guarantee for an
// id collision discovered at install time.
func TestBulkInsertAllOrNothingOnCollision(t *testing.T) {
	db := New()
	if err := db.Insert("taken", "", storeImage(0)); err != nil {
		t.Fatal(err)
	}
	items := []BulkItem{
		{ID: "fresh0", Image: storeImage(1)},
		{ID: "taken", Image: storeImage(2)},
		{ID: "fresh1", Image: storeImage(3)},
	}
	if err := db.BulkInsert(context.Background(), items, 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len=%d, want 1", db.Len())
	}
	if _, ok := db.Get("fresh0"); ok {
		t.Fatal("partial batch installed")
	}
}
