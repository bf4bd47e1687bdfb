package imagedb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

// assertPostings checks the narrowing layer's invariants on db's current
// version, shard by shard: the scan column is the entries map in strictly
// ascending seq order; every posting run is strictly ascending (sorted,
// each seq once); a seq is in a label's run exactly when the shard's
// entry with that seq holds the label; and a label no entry of the shard
// holds has an empty run.
func assertPostings(t *testing.T, db *DB) {
	t.Helper()
	snap := db.current.Load()
	for i, sv := range snap.shards {
		if len(sv.scan) != len(sv.entries) {
			t.Fatalf("shard %d: scan column holds %d entries, the map %d", i, len(sv.scan), len(sv.entries))
		}
		want := map[uint32][]uint64{} // label id -> seqs holding it, ascending
		for j, st := range sv.scan {
			if sv.entries[st.ID] != st {
				t.Fatalf("shard %d: scan[%d] (%q) is not the map's entry", i, j, st.ID)
			}
			if j > 0 && sv.scan[j-1].seq >= st.seq {
				t.Fatalf("shard %d: scan column not ascending by seq at %d (%d then %d)", i, j, sv.scan[j-1].seq, st.seq)
			}
			for _, id := range snap.dict.LookupAll(st.sig.Labels) {
				want[id] = append(want[id], st.seq)
			}
			if len(st.sig.Labels) != len(st.Image.Objects) {
				t.Fatalf("shard %d: %q has %d objects but %d signature labels", i, st.ID, len(st.Image.Objects), len(st.sig.Labels))
			}
		}
		for id, run := range sv.post {
			if !slices.Equal(run, want[uint32(id)]) {
				label, _ := snap.dict.Label(uint32(id))
				t.Fatalf("shard %d: run of %q = %v, entries holding it %v", i, label, run, want[uint32(id)])
			}
			delete(want, uint32(id))
		}
		if len(want) != 0 {
			t.Fatalf("shard %d: labels with entries but no run: %v", i, want)
		}
	}
}

// TestRunOps checks the run primitives against sets: insert and remove
// keep a run sorted and unique without touching the run they were given
// (an append aside), and the merges are set intersection and union.
func TestRunOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func(n, span int) []uint64 {
		set := map[uint64]bool{}
		for i := 0; i < n; i++ {
			set[uint64(rng.Intn(span))] = true
		}
		var run []uint64
		for v := range set {
			run = append(run, v)
		}
		slices.Sort(run)
		return run
	}
	for round := 0; round < 200; round++ {
		a, b := draw(rng.Intn(40), 60), draw(rng.Intn(40), 60)
		var and, or []uint64
		for v := uint64(0); v < 60; v++ {
			_, inA := slices.BinarySearch(a, v)
			_, inB := slices.BinarySearch(b, v)
			if inA && inB {
				and = append(and, v)
			}
			if inA || inB {
				or = append(or, v)
			}
		}
		if got := intersectRuns(nil, a, b); !slices.Equal(got, and) {
			t.Fatalf("%v ∩ %v = %v, want %v", a, b, got, and)
		}
		if got := unionRuns(nil, a, b); !slices.Equal(got, or) {
			t.Fatalf("%v ∪ %v = %v, want %v", a, b, got, or)
		}
		// In place, the way narrowing.run chains intersections.
		acc := slices.Clone(a)
		if acc = intersectRuns(acc[:0], acc, b); !slices.Equal(acc, and) {
			t.Fatalf("in-place %v ∩ %v = %v, want %v", a, b, acc, and)
		}

		v := uint64(rng.Intn(60))
		before := slices.Clone(a)
		grown := runInsert(a[:len(a):len(a)], v)
		if _, had := slices.BinarySearch(before, v); !had {
			if want := unionRuns(nil, before, []uint64{v}); !slices.Equal(grown, want) {
				t.Fatalf("insert %d into %v = %v", v, before, grown)
			}
			if shrunk := runRemove(grown, v); !slices.Equal(shrunk, before) {
				t.Fatalf("remove %d from %v = %v, want %v", v, grown, shrunk, before)
			}
		}
		if !slices.Equal(a, before) {
			t.Fatalf("insert/remove wrote into the run they were given: %v, was %v", a, before)
		}
	}
	if runRemove([]uint64{7}, 7) != nil {
		t.Fatal("a run emptied by a removal must be nil")
	}
}

// TestRunAppendSharedAcrossVersions pins the one in-place write a run
// ever sees: an insert appends to the backing array older versions
// share, and every pinned version keeps reading exactly the run it was
// published with — through later inserts, a delete and an object update.
func TestRunAppendSharedAcrossVersions(t *testing.T) {
	db := NewSharded(1)
	img := core.NewImage(40, 40, core.Object{Label: "L", Box: core.NewRect(0, 0, 1, 1)})
	runOf := func(sn *Snapshot, label string) []uint64 {
		return sn.snap.shards[0].run(db.labelDict().LookupAll([]string{label})[0])
	}
	type pin struct {
		sn   *Snapshot
		l, m []uint64
	}
	var pins []pin
	note := func() {
		sn := db.Snapshot()
		pins = append(pins, pin{sn, slices.Clone(runOf(sn, "L")), slices.Clone(runOf(sn, "M"))})
	}
	for i := 0; i < 40; i++ {
		if err := db.Insert(fmt.Sprintf("img%02d", i), "", img); err != nil {
			t.Fatal(err)
		}
		note()
		switch i {
		case 10: // a label brought to an old entry: a posting in the middle of nothing
			if err := db.InsertObject("img03", core.Object{Label: "M", Box: core.NewRect(5, 5, 6, 6)}); err != nil {
				t.Fatal(err)
			}
			note()
		case 20:
			if err := db.Delete("img07"); err != nil {
				t.Fatal(err)
			}
			note()
		case 30: // … and now in the middle of a run
			if err := db.InsertObject("img25", core.Object{Label: "M", Box: core.NewRect(5, 5, 6, 6)}); err != nil {
				t.Fatal(err)
			}
			if err := db.InsertObject("img15", core.Object{Label: "M", Box: core.NewRect(5, 5, 6, 6)}); err != nil {
				t.Fatal(err)
			}
			note()
		}
	}
	for i, p := range pins {
		if got := runOf(p.sn, "L"); !slices.Equal(got, p.l) {
			t.Fatalf("pinned version %d now reads L's run as %v, published with %v", i, got, p.l)
		}
		if got := runOf(p.sn, "M"); !slices.Equal(got, p.m) {
			t.Fatalf("pinned version %d now reads M's run as %v, published with %v", i, got, p.m)
		}
	}
	if last := pins[len(pins)-1]; len(last.l) != 39 || len(last.m) != 3 {
		t.Fatalf("final runs hold %d and %d postings, want 39 and 3", len(last.l), len(last.m))
	}
	assertPostings(t, db)
}

// TestRegionFindsIDWithNUL: image ids are opaque — only emptiness is
// rejected — so an id containing a NUL byte must be found by region
// queries like any other, labelled or not, before and after a reopen.
// (The R-tree keyed icons "id\x00label" and cut at the first NUL.)
func TestRegionFindsIDWithNUL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	box := core.NewRect(2, 2, 5, 5)
	for _, id := range []string{"plain", "a\x00b", "\x00", "a\x00b\x00L"} {
		img := core.NewImage(10, 10,
			core.Object{Label: "L", Box: box},
			core.Object{Label: "M", Box: core.NewRect(7, 7, 9, 9)})
		if err := s.Insert(id, "", img); err != nil {
			t.Fatalf("insert %q: %v", id, err)
		}
	}
	check := func(when string, db *DB) {
		t.Helper()
		for _, label := range []string{"L", ""} {
			got, want := regionIDs(t, db, box, label), wantRegionIDs(db, box, label)
			if len(got) != 4 || !slices.Equal(got, want) {
				t.Fatalf("%s: region %v label %q = %q, want %q", when, box, label, got, want)
			}
		}
		assertPostings(t, db)
	}
	check("live", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("reopened", mustOpen(t, dir))
}

// TestNarrowingUnderWriters runs narrowed queries on pinned versions
// while writers append to, copy and shrink the posting runs those
// versions share with the newer ones: every page must match the naive
// reference read from the same pinned version. Meant for -race.
func TestNarrowingUnderWriters(t *testing.T) {
	ctx := context.Background()
	db := NewSharded(2)
	g := workload.NewGenerator(workload.Config{Seed: 77, Vocabulary: 6, Width: 32, Height: 32, Objects: 3})
	for i := 0; i < 40; i++ {
		if err := db.Insert(fmt.Sprintf("seed%03d", i), "", g.Scene()); err != nil {
			t.Fatal(err)
		}
	}
	readersDone := make(chan struct{})
	var writing sync.WaitGroup
	writing.Add(1)
	go func() {
		defer writing.Done()
		wg := workload.NewGenerator(workload.Config{Seed: 78, Vocabulary: 6, Width: 32, Height: 32, Objects: 3})
		for i := 0; ; i++ {
			select {
			case <-readersDone:
				return
			default:
			}
			id := fmt.Sprintf("w%05d", i)
			err := db.Insert(id, "", wg.Scene())
			if err == nil && i%3 == 1 {
				err = db.InsertObject(fmt.Sprintf("seed%03d", i%40), core.Object{Label: fmt.Sprintf("x%d", i), Box: core.NewRect(1, 1, 2, 2)})
			}
			if err == nil && i%3 == 2 {
				err = db.Delete(fmt.Sprintf("w%05d", i-1))
			}
			if err != nil {
				t.Errorf("writer op %d: %v", i, err)
				return
			}
		}
	}()
	var reading sync.WaitGroup
	for r := 0; r < 3; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			region := core.NewRect(0, 0, 20, 20)
			for i := 0; i < 25; i++ {
				sn := db.Snapshot()
				src, _ := sn.Get(fmt.Sprintf("seed%03d", (r*7+i)%40))
				a, b := src.Image.Objects[0].Label, src.Image.Objects[1].Label
				spec := composedSpec{image: &src.Image, whereMin: -1, k: 5}
				opts := []QueryOption{WithK(5)}
				switch i % 3 {
				case 0:
					spec.dsl = a + " disjoint " + b + "; " + b + " overlaps " + a
					spec.whereMin = 0.5
					opts = append(opts, Where(spec.dsl), WithWhereMin(0.5))
				case 1:
					spec.region, spec.regionLabel = &region, a
					opts = append(opts, InRegionLabel(region, a))
				default:
					spec.labelPrefilter = true
					opts = append(opts, WithLabelPrefilter(true))
				}
				page, err := sn.Query(ctx, NewQuery(src.Image), opts...)
				if err != nil {
					t.Errorf("reader %d query %d: %v", r, i, err)
					return
				}
				want := referencePage(t, sn, spec)
				if got := (pageKey{page.Hits, page.Total, page.NextCursor}); !reflect.DeepEqual(got, want) {
					t.Errorf("reader %d query %d at epoch %d:\n got %+v\nwant %+v", r, i, sn.Epoch(), got, want)
					return
				}
			}
		}()
	}
	reading.Wait()
	close(readersDone)
	writing.Wait()
	assertPostings(t, db)
}
