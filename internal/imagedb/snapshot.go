package imagedb

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"

	"bestring/internal/core"
)

// This file is the MVCC core of the engine. Every read — Get, Len, the
// whole staged query pipeline — executes against a snapshot: one
// immutable version of the entire database (all shard maps, scan columns
// and posting runs) published atomically with a monotonically increasing
// epoch. Writers serialise on DB.mu, build the next version
// copy-on-write (only the touched shards are copied; everything else is
// shared by pointer) and publish it with a single atomic store. Readers
// therefore acquire no locks at all: they pin an epoch once (one atomic
// load) and traverse frozen data.
//
// Publish ordering is what makes torn reads impossible: a snapshot is
// fully constructed — maps and runs populated, count and epoch set —
// before the atomic store, and is never mutated afterwards. The store
// is the release point; a reader's atomic load acquires it, so a reader
// either sees the previous complete version or the next complete
// version, never a mixture.

// snapshot is one immutable published version of the database. All
// fields are write-once: after publish, nothing reachable from a
// snapshot ever changes (stored entries are already copy-on-write).
type snapshot struct {
	epoch  uint64
	shards []*shardView
	count  int
	// dict is the store's label dictionary — one append-only object
	// shared by every version, not versioned itself. It only ever grows,
	// and an entry's labels are interned before the version holding the
	// entry is published, so whichever version a query pinned, a lookup
	// made after the pin finds every label that version contains.
	dict *core.LabelDict
}

// shardView is one partition of one version, holding its entries three
// ways: by id, in scan order, and by icon label (this shard's slice of
// the inverted label index). The symbol signature that feeds the
// filter-and-refine ranking stage is not a fourth view: it rides on the
// entry itself (stored.sig, with the entry's coded axes beside it).
// Signatures and posting runs alike are derived data — pure functions of
// the installed entries and the store's label dictionary, never logged
// or persisted, and rebuilt for free on load and recovery because both
// replay through the same install path.
type shardView struct {
	entries map[string]*stored
	// scan is the shard's scan column: the same *stored pointers as
	// entries in a plain slice, in insertion order — that is, ascending
	// by seq, which is what lets a posting run be resolved against it by
	// search. Full scans walk it instead of the map, so arena-backed
	// segments — whose entries live in one contiguous slab in insertion
	// order — are visited cache-linearly rather than in random map order.
	// Copied whole on the shard's first touch by a transaction; appends
	// and removals act on the copy.
	scan []*stored
	// post is the shard's inverted label index: post[id] is the posting
	// run of the label the dictionary calls id — the seqs of the shard's
	// entries holding that label, ascending, each once. A label no entry
	// of the shard holds has an empty run (or lies past the end of post:
	// the dictionary grows, a shard's slice only as far as it needs). A
	// transaction copies the outer slice on first touch and the runs it
	// changes as postings.go describes.
	post [][]uint64
}

// run returns the posting run of the label with dictionary id label;
// empty for a label this shard (or the dictionary) has never held.
func (sv *shardView) run(label uint32) []uint64 {
	if int(label) >= len(sv.post) {
		return nil
	}
	return sv.post[label]
}

// emptySnapshot is version 1 of a fresh database. Epoch 0 is reserved to
// mean "no pinned epoch" in pagination cursors.
func emptySnapshot(nshards int) *snapshot {
	s := &snapshot{
		epoch:  1,
		shards: make([]*shardView, nshards),
		dict:   core.NewLabelDict(),
	}
	for i := range s.shards {
		s.shards[i] = &shardView{entries: make(map[string]*stored)}
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

// orderedIDs returns this version's ids in insertion order.
func (s *snapshot) orderedIDs() []string {
	all := make([]*stored, 0, s.count)
	for _, sv := range s.shards {
		all = append(all, sv.scan...)
	}
	return idsBySeq(all)
}

// idsBySeq sorts the entries by global insertion sequence (in place)
// and returns their ids.
func idsBySeq(sts []*stored) []string {
	sort.Slice(sts, func(i, j int) bool { return sts[i].seq < sts[j].seq })
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.ID
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
// hold DB.mu; nothing here is safe concurrently. Only the shards
// actually touched are copied (entries map, scan column and the outer
// posting slice; a posting run is copied only by a change that is not an
// append) — untouched structure is shared with the base version and
// every older retained one.
type txn struct {
	db     *DB
	base   *snapshot
	shards []*shardView
	dirty  []bool
	count  int
}

// begin opens a transaction on the current version.
func (db *DB) begin() *txn {
	base := db.current.Load()
	return &txn{
		db:     db,
		base:   base,
		shards: append([]*shardView(nil), base.shards...),
		dirty:  make([]bool, len(base.shards)),
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
			scan:    append(make([]*stored, 0, len(src.scan)+1), src.scan...),
			post:    append([][]uint64(nil), src.post...),
		}
		for k, v := range src.entries {
			sv.entries[k] = v
		}
		m.shards[idx] = sv
		m.dirty[idx] = true
	}
	return m.shards[idx]
}

// labelIDs returns the dictionary ids of st's labels, ascending.
func labelIDs(st *stored) []uint32 {
	ids, _ := st.sig.InternedIDs()
	return ids
}

// indexLabels adds seq to the posting run of every label in ids.
func (sv *shardView) indexLabels(ids []uint32, seq uint64) {
	for _, id := range ids {
		for int(id) >= len(sv.post) {
			sv.post = append(sv.post, nil)
		}
		sv.post[id] = runInsert(sv.post[id], seq)
	}
}

// unindexLabels removes seq from the posting run of every label in ids.
func (sv *shardView) unindexLabels(ids []uint32, seq uint64) {
	for _, id := range ids {
		sv.post[id] = runRemove(sv.post[id], seq)
	}
}

// add installs a new stored entry (id must not exist in the base). Its
// seq is the largest issued so far, so it goes last in the scan column
// and in every run.
func (m *txn) add(st *stored) {
	sv := m.shard(shardIndex(st.ID, len(m.shards)))
	st.index(m.base.dict)
	sv.entries[st.ID] = st
	sv.scan = append(sv.scan, st)
	sv.indexLabels(labelIDs(st), st.seq)
	m.count++
}

// remove uninstalls a stored entry present in the base.
func (m *txn) remove(st *stored) {
	sv := m.shard(shardIndex(st.ID, len(m.shards)))
	delete(sv.entries, st.ID)
	i := scanIndex(sv.scan, st.seq)
	sv.scan = slices.Delete(sv.scan, i, i+1)
	sv.unindexLabels(labelIDs(st), st.seq)
	m.count--
}

// replace swaps old for next under the same id and seq (an object-level
// update), so the scan position stays and only the runs of the labels
// the update dropped or brought change.
func (m *txn) replace(old, next *stored) {
	sv := m.shard(shardIndex(old.ID, len(m.shards)))
	next.index(m.base.dict)
	sv.entries[next.ID] = next
	sv.scan[scanIndex(sv.scan, old.seq)] = next
	was, now := labelIDs(old), labelIDs(next)
	sv.unindexLabels(without(was, now), old.seq)
	sv.indexLabels(without(now, was), next.seq)
}

// without returns the ids of a that are not in b.
func without(a, b []uint32) []uint32 {
	var out []uint32
	for _, id := range a {
		if !slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

// build seals the mutation into the next version.
func (m *txn) build() *snapshot {
	return &snapshot{
		epoch:  m.base.epoch + 1,
		shards: m.shards,
		count:  m.count,
		dict:   m.base.dict,
	}
}

// epochList is the immutable ring of recently published versions,
// ascending by epoch, swapped whole on publish. It is what lets a
// pagination cursor carried by a client re-pin the exact version its
// first page ran against.
type epochList struct {
	snaps []*snapshot
}

// snapshotRetention is how many recent versions a DB keeps resolvable
// for cursor re-pinning. Retained versions share almost all structure
// (copy-on-write), so the cost is the per-mutation deltas, not full
// copies. A paginated query whose cursor epoch has aged out falls back
// to the current version: the cursor's admission rule still guarantees
// no result is delivered twice, but entries written since the first
// page may shift what the remaining pages hold.
const snapshotRetention = 32

// publish installs the mutation's version as current and retains it in
// the epoch ring. Callers hold db.mu. The ring is stored before the
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

// Snapshot is a pinned, immutable view of the database at one epoch.
// Every method reads frozen data without acquiring any lock, and the
// view never changes however many writers run concurrently: queries,
// pagination and iteration against one Snapshot are perfectly repeatable.
// A Snapshot is cheap (one atomic load; the data is shared, not copied)
// and needs no release — dropping it frees nothing earlier and leaks
// nothing later.
type Snapshot struct {
	snap *snapshot
	// db links back to the minting DB for the scorer cache. Queries on
	// the Snapshot use it (it is version-safe: cache keys carry the entry
	// version), but their counters are not folded into DB.Stats — a
	// Snapshot may outlive the handle that minted it.
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
func (sn *Snapshot) IDs() []string { return sn.snap.orderedIDs() }

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
