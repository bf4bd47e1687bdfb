package imagedb

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

// seedArenaDB loads one corpus in one bulk insert (arena-packed) or one
// scene at a time (boxed), then runs a few point mutations so the
// copy-out paths (replace, delete, single insert on top of a sealed
// slab) are exercised too.
func seedArenaDB(t *testing.T, bulk bool, n int) *DB {
	t.Helper()
	g := workload.NewGenerator(workload.Config{Seed: 4242, Vocabulary: 20, Objects: 7})
	items := make([]BulkItem, n)
	for i := range items {
		items[i] = BulkItem{ID: fmt.Sprintf("img%05d", i), Name: fmt.Sprintf("s%d", i), Image: g.Scene()}
	}
	db := NewSharded(4)
	if bulk {
		if err := db.BulkInsert(context.Background(), items, 2); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, it := range items {
			if err := db.Insert(it.ID, it.Name, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Insert("late0", "", g.Scene()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertObject("img00003", core.Object{Label: "extra", Box: core.NewRect(0, 0, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("img00007"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestArenaRankingByteIdentical pins the arena layout's contract: it is
// a memory layout, never a semantics change. The same corpus loaded in
// bulk (arena-packed) and one scene at a time (boxed) must produce
// byte-for-byte identical pages for every query shape, including after
// post-seal mutations, and both must equal the full-sort reference.
func TestArenaRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	arena := seedArenaDB(t, true, 120)
	boxed := seedArenaDB(t, false, 120)
	if arena.Len() != boxed.Len() {
		t.Fatalf("Len: %d vs %d", arena.Len(), boxed.Len())
	}
	g := workload.NewGenerator(workload.Config{Seed: 4242, Vocabulary: 20, Objects: 7})
	scene := g.Scene()
	img := g.SubsetQuery(scene, 4)
	region := core.NewRect(0, 0, 40, 40)

	cases := []struct {
		q    func() *Query
		opts []QueryOption
		spec composedSpec
	}{
		{func() *Query { return NewQuery(img) }, []QueryOption{WithK(10)}, composedSpec{image: &img, whereMin: -1, k: 10}},
		{func() *Query { return NewQuery(img) }, nil, composedSpec{image: &img, whereMin: -1}}, // unbounded: every entry scored
		{func() *Query { return NewQuery(img) }, []QueryOption{WithK(10), WithScorer("invariant")},
			composedSpec{image: &img, whereMin: -1, k: 10, scorer: "invariant"}},
		{func() *Query { return NewQuery(img) }, []QueryOption{WithK(10), WithLabelPrefilter(true)},
			composedSpec{image: &img, whereMin: -1, k: 10, labelPrefilter: true}},
		{func() *Query { return NewQuery(img) }, []QueryOption{WithK(10), WithMinScore(0.3)},
			composedSpec{image: &img, whereMin: -1, k: 10, minScore: 0.3}},
		{func() *Query { return NewQuery(scene) }, []QueryOption{WithK(5), WithOffset(3)},
			composedSpec{image: &scene, whereMin: -1, k: 5, offset: 3}},
		{NewMatchQuery, []QueryOption{WithK(20), InRegion(region)}, composedSpec{whereMin: -1, k: 20, region: &region}},
	}
	for i, c := range cases {
		for _, par := range []int{0, 1, 3} {
			opts := append([]QueryOption{WithParallelism(par)}, c.opts...)
			a, err := arena.Query(ctx, c.q(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := boxed.Query(ctx, c.q(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			// The twins reached the same state through different epochs,
			// so their cursors agree on the position only.
			if aj, bj := positionID(t, a), positionID(t, b); aj != bj {
				t.Fatalf("case %d parallelism %d: arena ranking diverged from boxed\n arena: %s\n boxed: %s", i, par, aj, bj)
			}
			assertReference(t, fmt.Sprintf("case %d parallelism %d arena", i, par), arena, a, c.spec)
			assertReference(t, fmt.Sprintf("case %d parallelism %d boxed", i, par), boxed, b, c.spec)
		}
	}
}

// positionID is pageID with the cursor's epoch dropped.
func positionID(t *testing.T, p *Page) string {
	t.Helper()
	var pos cursorPos
	if p.NextCursor != "" {
		var err error
		if pos, err = decodeCursor(p.NextCursor); err != nil {
			t.Fatal(err)
		}
		pos.Epoch = 0
	}
	j, err := json.Marshal(struct {
		Hits   []Hit
		Total  int
		Cursor cursorPos
	}{p.Hits, p.Total, pos})
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestArenaEntriesImmutable verifies the copy-out discipline: mutating
// an entry that lives in a sealed slab must not disturb its arena
// neighbours or the snapshot a concurrent reader pinned.
func TestArenaEntriesImmutable(t *testing.T) {
	db := seedArenaDB(t, true, 60)
	before, ok := db.Get("img00011")
	if !ok {
		t.Fatal("img00011 missing")
	}
	snap := db.Snapshot()
	if err := db.InsertObject("img00010", core.Object{Label: "mut", Box: core.NewRect(1, 1, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("img00012"); err != nil {
		t.Fatal(err)
	}
	after, ok := db.Get("img00011")
	if !ok || !reflect.DeepEqual(before, after) {
		t.Fatalf("slab neighbour changed: %+v -> %+v", before, after)
	}
	// The pinned snapshot still sees the pre-mutation world.
	if _, ok := snap.Get("img00012"); !ok {
		t.Fatal("snapshot lost a deleted slab entry")
	}
	if e, _ := snap.Get("img00010"); len(e.Image.Objects) != len(mustGet(t, db, "img00010").Image.Objects)-1 {
		t.Fatal("snapshot observed a post-seal mutation")
	}
}

func mustGet(t *testing.T, db *DB, id string) Entry {
	t.Helper()
	e, ok := db.Get(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	return e
}

// TestBuildArenaLayout checks the slab mechanics directly: pointer
// stability into the entries slab, memoized signatures, and label slices
// re-pointed into the shared slab.
func TestBuildArenaLayout(t *testing.T) {
	g := workload.NewGenerator(workload.Config{Seed: 7, Vocabulary: 8, Objects: 5})
	items := make([]arenaItem, 16)
	for i := range items {
		img := g.Scene()
		be, err := core.Convert(img)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = arenaItem{id: fmt.Sprintf("a%02d", i), img: img, be: be}
	}
	dict := core.NewLabelDict()
	a := buildArena(items, dict)
	sts := a.pointers()
	if len(sts) != len(items) {
		t.Fatalf("%d pointers", len(sts))
	}
	for i, st := range sts {
		if st != &a.entries[i] {
			t.Fatalf("entry %d not a slab pointer", i)
		}
		if st.sig == nil || st.sig != &a.sigs[i] {
			t.Fatalf("entry %d signature not memoized into the slab", i)
		}
		if st.ID != items[i].id {
			t.Fatalf("entry %d id %q", i, st.ID)
		}
		// The signature and codes must match a fresh computation.
		assertIndexed(t, st, dict)
	}
}
