package imagedb

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"bestring/internal/core"
	"bestring/internal/rtree"
)

// This file is the MVCC core of the engine. Every read — Get, Len, the
// whole staged query pipeline — executes against a snapshot: one
// immutable version of the entire database (all shard maps, the inverted
// label indexes and the R-tree) published atomically with a monotonically
// increasing epoch. Writers serialise on DB.writeMu, build the next
// version copy-on-write (only the touched shard and the touched R-tree
// path are copied; everything else is shared by pointer) and publish it
// with a single atomic store. Readers therefore acquire no locks at all:
// they pin an epoch once (one atomic load) and traverse frozen data.
//
// Publish ordering is what makes torn reads impossible: a snapshot is
// fully constructed — maps populated, tree cloned, count and epoch set —
// before the atomic store, and is never mutated afterwards. The store
// is the release point; a reader's atomic load acquires it, so a reader
// either sees the previous complete version or the next complete
// version, never a mixture.

// snapshot is one immutable published version of the database. All
// fields are write-once: after publish, nothing reachable from a
// snapshot ever changes (stored entries are already copy-on-write).
type snapshot struct {
	epoch   uint64
	shards  []*shardView
	spatial *rtree.Tree
	count   int
	// dict is the store's label dictionary — one append-only object
	// shared by every version, not versioned itself. It only ever grows,
	// and an entry's labels are interned before the version holding the
	// entry is published, so whichever version a query pinned, a lookup
	// made after the pin finds every label that version contains.
	dict *core.LabelDict
}

// shardView is one partition of one version, holding its entries three
// ways: by id, by icon label (this shard's slice of the inverted label
// index, label -> image ids) and in scan order. The symbol signature
// that feeds the filter-and-refine ranking stage is not a fourth view:
// it rides on the entry itself (stored.sig, with the entry's coded axes
// beside it) — derived data, a pure function of the entry's BE-string and
// the store's label dictionary, computed once when the entry is
// installed, never logged or persisted, and rebuilt for free on recovery
// because recovery replays through the same install path.
type shardView struct {
	entries map[string]*stored
	labels  map[string]map[string]bool
	// scan is the shard's scan column: the same *stored pointers as
	// entries, kept in insertion order in a plain slice. Full scans
	// (collect without a prefilter) walk it instead of the map, so
	// arena-backed segments — whose entries live in one contiguous slab in
	// insertion order — are visited cache-linearly rather than in random
	// map order. Maintained copy-on-write like the maps: the slice header
	// is copied on first touch, appends and removals act on the copy.
	scan []*stored
}

// emptySnapshot is version 1 of a fresh database. Epoch 0 is reserved to
// mean "no pinned epoch" in pagination cursors.
func emptySnapshot(nshards int) *snapshot {
	s := &snapshot{
		epoch:   1,
		shards:  make([]*shardView, nshards),
		spatial: rtree.New(rtree.DefaultMaxEntries),
		dict:    core.NewLabelDict(),
	}
	for i := range s.shards {
		s.shards[i] = &shardView{
			entries: make(map[string]*stored),
			labels:  make(map[string]map[string]bool),
		}
	}
	return s
}

// shardIndex routes an id to its partition (FNV-1a, inlined so the hot
// path of every Get/Insert/Delete stays allocation-free).
func shardIndex(id string, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// shardFor returns the partition holding id in this version.
func (s *snapshot) shardFor(id string) *shardView {
	return s.shards[shardIndex(id, len(s.shards))]
}

// lookup finds the stored entry for id in this version.
func (s *snapshot) lookup(id string) (*stored, bool) {
	st, ok := s.shardFor(id).entries[id]
	return st, ok
}

// scanColumns returns every shard's scan column — the whole version, in
// place. The columns belong to the (immutable) version: callers read
// them and must never filter or reorder them in place.
func (s *snapshot) scanColumns() [][]*stored {
	cols := make([][]*stored, len(s.shards))
	for i, sv := range s.shards {
		cols[i] = sv.scan
	}
	return cols
}

// collect gathers this version's entries into a fresh slice the caller
// owns (the narrowing stages filter it in place), optionally pruned to
// images sharing at least one of the given icon labels (the
// inverted-index narrowing stage). Slice order is arbitrary; callers
// that need determinism sort afterwards. No locks: the version is frozen.
func (s *snapshot) collect(labels []string, prefilter bool) []*stored {
	size := 64
	if !prefilter {
		size = s.count // a full scan returns every entry
	}
	out := make([]*stored, 0, size)
	for _, sv := range s.shards {
		if prefilter {
			cand := make(map[string]bool)
			for _, label := range labels {
				for id := range sv.labels[label] {
					cand[id] = true
				}
			}
			for id := range cand {
				out = append(out, sv.entries[id])
			}
		} else {
			out = append(out, sv.scan...)
		}
	}
	return out
}

// orderedIDsMatching returns the ids accepted by keep (nil keeps all),
// sorted by global insertion sequence.
func (s *snapshot) orderedIDsMatching(keep func(sv *shardView, id string) bool) []string {
	type idSeq struct {
		id  string
		seq uint64
	}
	all := make([]idSeq, 0, 64)
	for _, sv := range s.shards {
		for id, st := range sv.entries {
			if keep == nil || keep(sv, id) {
				all = append(all, idSeq{id, st.seq})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]string, len(all))
	for i, v := range all {
		out[i] = v.id
	}
	return out
}

// orderedEntries returns this version's entries sorted by insertion
// sequence — the persistence iteration order. The Entry values share
// their images and BE-strings with the (immutable) stored entries, so
// they are safe to encode but must not be handed to callers who mutate.
func (s *snapshot) orderedEntries() []Entry {
	type entrySeq struct {
		e   Entry
		seq uint64
	}
	all := make([]entrySeq, 0, s.count)
	for _, sv := range s.shards {
		for _, st := range sv.entries {
			all = append(all, entrySeq{st.Entry, st.seq})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Entry, len(all))
	for i, v := range all {
		out[i] = v.e
	}
	return out
}

// stats reports occupancy of this version.
func (s *snapshot) stats() Stats {
	st := Stats{Epoch: s.epoch, Shards: len(s.shards), PerShard: make([]int, len(s.shards)), Labels: s.dict.Len()}
	for i, sv := range s.shards {
		st.PerShard[i] = len(sv.entries)
		st.Images += st.PerShard[i]
	}
	return st
}

// txn builds the next version of the database copy-on-write. Callers
// hold DB.writeMu; nothing here is safe concurrently. Only the shards
// actually touched are copied (entries map plus the outer label map;
// inner label sets copy lazily on first touch), and the R-tree clones
// lazily with path copying — untouched structure is shared with the
// base version and every older retained one.
type txn struct {
	db     *DB
	base   *snapshot
	shards []*shardView
	dirty  []bool
	// fresh tracks, per dirty shard, the label sets already copied during
	// this mutation, so a bulk batch touching one label many times pays
	// the inner-set copy once.
	fresh   []map[string]bool
	spatial *rtree.Tree // nil until the first spatial change
	count   int
}

// begin opens a transaction on the current version.
func (db *DB) begin() *txn {
	base := db.current.Load()
	return &txn{
		db:     db,
		base:   base,
		shards: append([]*shardView(nil), base.shards...),
		dirty:  make([]bool, len(base.shards)),
		fresh:  make([]map[string]bool, len(base.shards)),
		count:  base.count,
	}
}

// shard returns a writable view of partition idx, copying it from the
// base version on first touch.
func (m *txn) shard(idx int) *shardView {
	if !m.dirty[idx] {
		src := m.shards[idx]
		sv := &shardView{
			entries: make(map[string]*stored, len(src.entries)+1),
			labels:  make(map[string]map[string]bool, len(src.labels)),
		}
		for k, v := range src.entries {
			sv.entries[k] = v
		}
		for k, v := range src.labels {
			sv.labels[k] = v
		}
		sv.scan = append(make([]*stored, 0, len(src.scan)+1), src.scan...)
		m.shards[idx] = sv
		m.dirty[idx] = true
		m.fresh[idx] = make(map[string]bool)
	}
	return m.shards[idx]
}

// tree returns the writable R-tree for this mutation, cloning the base
// version's tree (O(1); mutations then path-copy) on first touch.
func (m *txn) tree() *rtree.Tree {
	if m.spatial == nil {
		m.spatial = m.base.spatial.Clone()
	}
	return m.spatial
}

// indexLabel registers id under label in shard idx, copying the inner
// set if this mutation does not own it yet.
func (m *txn) indexLabel(idx int, sv *shardView, label, id string) {
	ids := sv.labels[label]
	switch {
	case ids == nil:
		ids = make(map[string]bool, 1)
	case !m.fresh[idx][label]:
		c := make(map[string]bool, len(ids)+1)
		for k := range ids {
			c[k] = true
		}
		ids = c
	}
	ids[id] = true
	sv.labels[label] = ids
	m.fresh[idx][label] = true
}

// unindexLabel removes id from label's set in shard idx, with the same
// copy-on-first-touch rule; an emptied set is dropped from the index.
func (m *txn) unindexLabel(idx int, sv *shardView, label, id string) {
	ids := sv.labels[label]
	if ids == nil {
		return
	}
	if !m.fresh[idx][label] {
		c := make(map[string]bool, len(ids))
		for k := range ids {
			c[k] = true
		}
		ids = c
		sv.labels[label] = c
		m.fresh[idx][label] = true
	}
	delete(ids, id)
	if len(ids) == 0 {
		delete(sv.labels, label)
	}
}

// add installs a new stored entry (id must not exist in the base).
func (m *txn) add(st *stored) {
	idx := shardIndex(st.ID, len(m.shards))
	sv := m.shard(idx)
	st.index(m.base.dict)
	sv.entries[st.ID] = st
	sv.scan = append(sv.scan, st)
	t := m.tree()
	for _, o := range st.Image.Objects {
		m.indexLabel(idx, sv, o.Label, st.ID)
		t.Insert(spatialID(st.ID, o.Label), o.Box)
	}
	m.count++
}

// remove uninstalls a stored entry present in the base.
func (m *txn) remove(st *stored) {
	idx := shardIndex(st.ID, len(m.shards))
	sv := m.shard(idx)
	delete(sv.entries, st.ID)
	for i, cur := range sv.scan {
		if cur == st {
			sv.scan = append(sv.scan[:i], sv.scan[i+1:]...)
			break
		}
	}
	t := m.tree()
	for _, o := range st.Image.Objects {
		m.unindexLabel(idx, sv, o.Label, st.ID)
		t.Delete(spatialID(st.ID, o.Label), o.Box)
	}
	m.count--
}

// replace swaps old for next under the same id (an object-level update;
// the insertion sequence is preserved by the caller).
func (m *txn) replace(old, next *stored) {
	idx := shardIndex(old.ID, len(m.shards))
	sv := m.shard(idx)
	t := m.tree()
	for _, o := range old.Image.Objects {
		m.unindexLabel(idx, sv, o.Label, old.ID)
		t.Delete(spatialID(old.ID, o.Label), o.Box)
	}
	next.index(m.base.dict)
	sv.entries[next.ID] = next
	for i, cur := range sv.scan {
		if cur == old {
			sv.scan[i] = next
			break
		}
	}
	for _, o := range next.Image.Objects {
		m.indexLabel(idx, sv, o.Label, next.ID)
		t.Insert(spatialID(next.ID, o.Label), o.Box)
	}
}

// build seals the mutation into the next version.
func (m *txn) build() *snapshot {
	spatial := m.spatial
	if spatial == nil {
		spatial = m.base.spatial
	}
	return &snapshot{
		epoch:   m.base.epoch + 1,
		shards:  m.shards,
		spatial: spatial,
		count:   m.count,
		dict:    m.base.dict,
	}
}

// epochList is the immutable ring of recently published versions,
// ascending by epoch, swapped whole on publish. It is what lets a
// pagination cursor carried by a client re-pin the exact version its
// first page ran against.
type epochList struct {
	snaps []*snapshot
}

// DefaultSnapshotRetention is how many recent versions a DB keeps
// resolvable for cursor re-pinning. Retained versions share almost all
// structure (copy-on-write), so the cost is the per-mutation deltas, not
// full copies. Tune with SetSnapshotRetention.
const DefaultSnapshotRetention = 32

// publish installs the mutation's version as current and retains it in
// the epoch ring. Callers hold db.writeMu. The ring is stored before the
// current pointer, so any epoch observable via current is resolvable.
func (db *DB) publish(m *txn) {
	next := m.build()
	retain := db.retain
	if retain > 0 {
		var snaps []*snapshot
		if old := db.history.Load(); old != nil {
			snaps = old.snaps
		}
		keep := len(snaps) + 1 - retain
		if keep < 0 {
			keep = 0
		}
		db.history.Store(&epochList{
			snaps: append(append(make([]*snapshot, 0, len(snaps)-keep+1), snaps[keep:]...), next),
		})
	}
	db.current.Store(next)
}

// findEpoch resolves a retained version by epoch (nil when it has aged
// out of the ring). Lock-free: one or two atomic loads plus a scan of
// the immutable ring.
func (db *DB) findEpoch(e uint64) *snapshot {
	if cur := db.current.Load(); cur.epoch == e {
		return cur
	}
	h := db.history.Load()
	if h == nil {
		return nil
	}
	for i := len(h.snaps) - 1; i >= 0; i-- {
		if h.snaps[i].epoch == e {
			return h.snaps[i]
		}
	}
	return nil
}

// SetSnapshotRetention sets how many recent versions stay resolvable for
// cursor re-pinning (minimum 1 — the current version; the default is
// DefaultSnapshotRetention). A paginated query whose cursor epoch has
// aged out falls back to the current version: the cursor's admission
// rule still guarantees no result is delivered twice, but entries
// written since the first page may shift what the remaining pages hold.
func (db *DB) SetSnapshotRetention(n int) {
	if n < 1 {
		n = 1
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.retain = n
	if h := db.history.Load(); h != nil && len(h.snaps) > n {
		db.history.Store(&epochList{
			snaps: append([]*snapshot(nil), h.snaps[len(h.snaps)-n:]...),
		})
	}
}

// Snapshot is a pinned, immutable view of the database at one epoch.
// Every method reads frozen data without acquiring any lock, and the
// view never changes however many writers run concurrently: queries,
// pagination and iteration against one Snapshot are perfectly repeatable.
// A Snapshot is cheap (one atomic load; the data is shared, not copied)
// and needs no release — dropping it frees nothing earlier and leaks
// nothing later.
type Snapshot struct {
	snap *snapshot
	// db links back to the minting DB for the scorer cache and planner
	// statistics. Queries on the Snapshot use them (both are
	// version-safe: cache keys carry the entry version), but their
	// counters are not folded into DB.Stats — a Snapshot may outlive the
	// handle that minted it.
	db *DB
}

// Snapshot pins the current version of the database.
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{snap: db.current.Load(), db: db}
}

// Epoch identifies this version; it increases by one per published
// mutation.
func (sn *Snapshot) Epoch() uint64 { return sn.snap.epoch }

// Len returns the number of images in this version.
func (sn *Snapshot) Len() int { return sn.snap.count }

// Has reports whether id is stored in this version.
func (sn *Snapshot) Has(id string) bool {
	_, ok := sn.snap.lookup(id)
	return ok
}

// Get returns a copy of the entry with the given id in this version.
func (sn *Snapshot) Get(id string) (Entry, bool) {
	st, ok := sn.snap.lookup(id)
	if !ok {
		return Entry{}, false
	}
	return copyEntry(&st.Entry), true
}

// IDs returns this version's ids in insertion order.
func (sn *Snapshot) IDs() []string { return sn.snap.orderedIDsMatching(nil) }

// Stats reports shard occupancy of this version.
func (sn *Snapshot) Stats() Stats { return sn.snap.stats() }

// Query executes a composed query against this version (see DB.Query).
// Cursors minted by a Snapshot page resume on this same version
// regardless of retention, because the caller still holds it.
func (sn *Snapshot) Query(ctx context.Context, q *Query, opts ...QueryOption) (*Page, error) {
	spec := q.clone().apply(opts)
	if spec.err != nil {
		return nil, fmt.Errorf("query: %w", spec.err)
	}
	cur, err := spec.decodedCursor()
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	page, err := executeOn(ctx, sn.db, sn.snap, spec, cur)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return page, nil
}

// QueryIter streams the query's results from this version in ranking
// order (see DB.QueryIter).
func (sn *Snapshot) QueryIter(ctx context.Context, q *Query, opts ...QueryOption) iter.Seq2[Hit, error] {
	spec := q.clone().apply(opts)
	return func(yield func(Hit, error) bool) {
		cur, err := spec.decodedCursor()
		if err != nil {
			yield(Hit{}, fmt.Errorf("query: %w", err))
			return
		}
		iterOn(ctx, sn.db, sn.snap, spec, cur, nil)(yield)
	}
}
