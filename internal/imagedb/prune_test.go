package imagedb

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bestring/internal/core"
	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// seedPruneDB builds a randomized corpus through the full mutation
// surface — bulk insert, single inserts, object updates and deletes —
// so signature memoisation is exercised on every txn path.
func seedPruneDB(t *testing.T, seed int64, n int) (*DB, *workload.Generator) {
	t.Helper()
	g := workload.NewGenerator(workload.Config{Seed: seed, Vocabulary: 20, Objects: 7})
	items := make([]BulkItem, n/2)
	for i := range items {
		items[i] = BulkItem{ID: fmt.Sprintf("bulk%04d", i), Image: g.Scene()}
	}
	db := NewSharded(4)
	if err := db.BulkInsert(context.Background(), items, 2); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if err := db.Insert(fmt.Sprintf("one%04d", i), "", g.Scene()); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a few entries through every update path so replaced entries
	// get fresh column values.
	if err := db.InsertObject("bulk0000", core.Object{Label: "extra", Box: core.NewRect(0, 0, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteObject("bulk0001", firstLabel(t, db, "bulk0001")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("bulk0002"); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// firstLabel returns one object label of the stored image.
func firstLabel(t *testing.T, db *DB, id string) string {
	t.Helper()
	e, ok := db.Get(id)
	if !ok {
		t.Fatalf("entry %q not found", id)
	}
	return e.Image.Objects[0].Label
}

// assertIndexed checks one entry's rank-kernel data against a fresh
// derivation: the signature's exported fields equal SignatureOf(BE), its
// interned set decodes (through dict) to exactly sig.Labels, and the
// axis codes decode to exactly the entry's BE-string.
func assertIndexed(t *testing.T, st *stored, dict *core.LabelDict) {
	t.Helper()
	if st.sig == nil {
		t.Fatalf("installed entry %q carries no signature", st.ID)
	}
	want := core.SignatureOf(st.BE)
	got := *st.sig
	if !slices.Equal(got.Labels, want.Labels) ||
		got.LenX != want.LenX || got.LenY != want.LenY ||
		got.DummiesX != want.DummiesX || got.DummiesY != want.DummiesY {
		t.Fatalf("signature for %q = %+v, want %+v", st.ID, got, want)
	}
	ids, from := st.sig.InternedIDs()
	if from != dict {
		t.Fatalf("signature for %q interned against %p, want the store's dictionary %p", st.ID, from, dict)
	}
	labels := make([]string, len(ids))
	for i, id := range ids {
		var ok bool
		if labels[i], ok = dict.Label(id); !ok {
			t.Fatalf("signature for %q holds id %d the dictionary never issued", st.ID, id)
		}
	}
	sort.Strings(labels)
	if !slices.Equal(labels, want.Labels) {
		t.Fatalf("interned set of %q decodes to %v, want %v", st.ID, labels, want.Labels)
	}
	x, okX := dict.Decode(st.codes.X)
	y, okY := dict.Decode(st.codes.Y)
	if !okX || !okY || !(core.BEString{X: x, Y: y}).Equal(st.BE) {
		t.Fatalf("codes of %q decode to %v | %v, want %v", st.ID, x, y, st.BE)
	}
}

// assertSignaturesInstalled checks the invariant that replaced the
// per-shard signature map: every entry installed in db's current version
// carries a memoised signature equal to SignatureOf(entry.BE), interned
// against the store's label dictionary, and its axes coded against the
// same, so the rank stage reads both without deriving or looking
// anything up.
func assertSignaturesInstalled(t *testing.T, db *DB) {
	t.Helper()
	snap := db.current.Load()
	total := 0
	for _, sv := range snap.shards {
		if len(sv.scan) != len(sv.entries) {
			t.Fatalf("scan column size %d != entries %d", len(sv.scan), len(sv.entries))
		}
		for _, st := range sv.entries {
			total++
			assertIndexed(t, st, snap.dict)
		}
	}
	if total != db.Len() {
		t.Fatalf("checked %d signatures, want %d", total, db.Len())
	}
}

// TestSignatureColumnMatchesEntries pins the invariant on every install
// path: bulk, single insert, object update (replace, of boxed and of
// arena entries), delete, streamed import, replica apply, and WAL
// recovery replaying all of them.
func TestSignatureColumnMatchesEntries(t *testing.T) {
	db, g := seedPruneDB(t, 99, 40)
	assertSignaturesInstalled(t, db)

	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Import(context.Background(), ingest.FromItems(importScenes(5, 70)), ImportOptions{ChunkScenes: 32}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("solo", "", g.Scene()); err != nil {
		t.Fatal(err)
	}
	// img00003 is an arena entry (imported); the update copies it out.
	if err := s.InsertObject("img00003", core.Object{Label: "extra", Box: core.NewRect(0, 0, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("img00004"); err != nil {
		t.Fatal(err)
	}
	assertSignaturesInstalled(t, s)

	// Replica apply: a follower rebuilds every entry — and its own label
	// dictionary — from the shipped records alone.
	follower, err := OpenStore(t.TempDir(), StoreOptions{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := applyFramed(t, follower, collectDurable(t, s)); err != nil {
		t.Fatal(err)
	}
	if follower.Len() != s.Len() {
		t.Fatalf("follower holds %d entries, primary %d", follower.Len(), s.Len())
	}
	assertSignaturesInstalled(t, follower)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenStore(dir, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 70 {
		t.Fatalf("recovered %d entries, want 70", s.Len())
	}
	assertSignaturesInstalled(t, s)
}

// TestBoundDominatesExactInEngine is the engine-level half of the
// proof-pinning property test: over three seeds, for every stored entry
// and every scorer with a bound, the bound computed from the entry's
// installed signature must dominate the exact score of the scorer's
// token-level reference. Together with the math-level test in
// internal/similarity this guarantees pruning can never drop a true
// result.
func TestBoundDominatesExactInEngine(t *testing.T) {
	for _, seed := range []int64{3, 71, 20010407} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db, g := seedPruneDB(t, seed, 30)
			queries := []core.Image{
				g.Scene(),
				g.SubsetQuery(g.Scene(), 3),
				g.JitterQuery(g.Scene(), 5),
			}
			snap := db.current.Load()
			for _, name := range ScorerNames() {
				bound, ok := LookupBound(name)
				if !ok {
					continue
				}
				scorer := referenceScorer(name)
				for qi, img := range queries {
					qbe, err := core.Convert(img)
					if err != nil {
						t.Fatal(err)
					}
					qsig := core.SignatureOf(qbe)
					for _, id := range db.IDs() {
						st, ok := snap.lookup(id)
						if !ok {
							t.Fatalf("no entry for %q", id)
						}
						ub := bound(qsig, *st.sig)
						exact := scorer(img, qbe, st.Entry)
						if ub < exact {
							t.Fatalf("scorer %s query %d entry %s: bound %.9f < exact %.9f",
								name, qi, id, ub, exact)
						}
						if exact < 0 {
							t.Fatalf("scorer %s entry %s: negative score %.9f breaks the Bound contract",
								name, id, exact)
						}
					}
				}
			}
		})
	}
}

// TestPrunedRankingByteIdentical pins the refine stage's contract: the
// pruned ranking — hits, total and cursor — is byte-identical to the
// naive full-sort reference, which bounds nothing, across scorers
// (bounded and not), K, MinScore, offsets and full cursor walks, at
// several parallelism levels.
func TestPrunedRankingByteIdentical(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 12345, 80)
	img := g.SubsetQuery(g.Scene(), 4)
	ref := func(spec composedSpec) composedSpec {
		spec.image, spec.whereMin = &img, -1
		return spec
	}

	cases := []struct {
		opts []QueryOption
		spec composedSpec
	}{
		{[]QueryOption{WithK(10)}, ref(composedSpec{k: 10})},
		{[]QueryOption{WithK(1)}, ref(composedSpec{k: 1})},
		{[]QueryOption{WithK(200)}, ref(composedSpec{k: 200})}, // K beyond corpus: heap never fills, nothing heap-pruned
		{nil, ref(composedSpec{})},                             // unbounded: only MinScore pruning could apply
		{[]QueryOption{WithK(10), WithScorer("invariant")}, ref(composedSpec{k: 10, scorer: "invariant"})},
		{[]QueryOption{WithK(10), WithScorer("symbols")}, ref(composedSpec{k: 10, scorer: "symbols"})},
		{[]QueryOption{WithK(10), WithScorer("type1")}, ref(composedSpec{k: 10, scorer: "type1"})}, // no bound: exact only
		{[]QueryOption{WithK(10), WithMinScore(0.4)}, ref(composedSpec{k: 10, minScore: 0.4})},
		{[]QueryOption{WithMinScore(0.55)}, ref(composedSpec{minScore: 0.55})},
		{[]QueryOption{WithK(5), WithOffset(7)}, ref(composedSpec{k: 5, offset: 7})},
		{[]QueryOption{WithK(10), WithLabelPrefilter(true)}, ref(composedSpec{k: 10, labelPrefilter: true})},
	}
	for i, c := range cases {
		for _, par := range []int{0, 1, 3} {
			page, err := db.Query(ctx, NewQuery(img), append([]QueryOption{WithParallelism(par)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			assertReference(t, fmt.Sprintf("case %d parallelism %d", i, par), db, page, c.spec)
		}
	}

	// Full cursor walk: the heap floor interacts with the cursor admission
	// rule; every page must be the reference's page at that position.
	assertWalkMatchesReference(t, "cursor walk", db, ref(composedSpec{k: 7}), func(cursor string) *Page {
		page, err := db.Query(ctx, NewQuery(img), WithK(7), WithCursor(cursor))
		if err != nil {
			t.Fatal(err)
		}
		return page
	})
}

// TestStageCountsAndStats pins the observability wiring: per-page stage
// counts are coherent, pruning actually fires on a prunable workload, a
// scorer that declares no bound reports zero bound work, and the DB's
// cumulative SearchStats add up across queries.
func TestStageCountsAndStats(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 777, 60)
	img := g.SubsetQuery(g.Scene(), 3)

	before := db.Stats().Search

	page, err := db.Query(ctx, NewQuery(img), WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	sc := page.Stages
	if sc == nil {
		t.Fatal("no stage counts on page")
	}
	if sc.Indexed != db.Len() || sc.Region != sc.Indexed || sc.Narrowed != sc.Indexed {
		t.Fatalf("narrowing counts %+v inconsistent with unfiltered corpus %d", sc, db.Len())
	}
	if sc.Bounded != sc.Narrowed {
		t.Fatalf("bounded %d != narrowed %d for a bound-declaring scorer", sc.Bounded, sc.Narrowed)
	}
	if sc.Evaluated+sc.Pruned != sc.Bounded {
		t.Fatalf("evaluated %d + pruned %d != bounded %d", sc.Evaluated, sc.Pruned, sc.Bounded)
	}
	if sc.Pruned == 0 {
		t.Fatalf("expected pruning on a K=5 query over %d scenes, got none (%+v)", db.Len(), sc)
	}

	// type1 reads raw coordinates and declares no bound: every candidate
	// is evaluated exactly.
	off, err := db.Query(ctx, NewQuery(img), WithK(5), WithScorer("type1"))
	if err != nil {
		t.Fatal(err)
	}
	if off.Stages.Bounded != 0 || off.Stages.Pruned != 0 {
		t.Fatalf("unbounded scorer but bound work reported: %+v", off.Stages)
	}
	if off.Stages.Evaluated != off.Stages.Narrowed {
		t.Fatalf("unbounded scorer: evaluated %d != narrowed %d", off.Stages.Evaluated, off.Stages.Narrowed)
	}

	after := db.Stats().Search
	if after.Queries != before.Queries+2 {
		t.Fatalf("queries counter %d, want %d", after.Queries, before.Queries+2)
	}
	wantEval := before.Evaluated + uint64(sc.Evaluated+off.Stages.Evaluated)
	if after.Evaluated != wantEval {
		t.Fatalf("evaluated counter %d, want %d", after.Evaluated, wantEval)
	}
	if after.Pruned != before.Pruned+uint64(sc.Pruned) {
		t.Fatalf("pruned counter %d, want %d", after.Pruned, before.Pruned+uint64(sc.Pruned))
	}
}

// TestSignatureColumnSurvivesPersistence pins that signatures are
// derived, not stored: a JSON save/load round trip (which carries no
// signature bytes) re-derives them on install, and pruned rankings on
// the loaded database match the original.
func TestSignatureColumnSurvivesPersistence(t *testing.T) {
	ctx := context.Background()
	db, g := seedPruneDB(t, 31, 40)
	img := g.SubsetQuery(g.Scene(), 3)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertSignaturesInstalled(t, loaded)
	want, err := db.Query(ctx, NewQuery(img), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Query(ctx, NewQuery(img), WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Fatalf("loaded ranking diverged:\n got %+v\nwant %+v", got.Hits, want.Hits)
	}
	if got.Stages.Pruned == 0 && want.Stages.Pruned > 0 {
		t.Fatalf("pruning inactive after load: %+v vs %+v", got.Stages, want.Stages)
	}
}
