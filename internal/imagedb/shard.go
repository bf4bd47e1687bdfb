package imagedb

import (
	"runtime"

	"bestring/internal/core"
)

// stored is one entry as kept inside a shard view: the public Entry plus
// the global insertion sequence number used to reconstruct insertion
// order across shards. A stored entry is immutable once published: any
// number of snapshots reference *stored pointers concurrently, so
// updates replace the entry (copy-on-write in txn.apply) rather than
// mutating it.
type stored struct {
	Entry
	seq uint64
	// sig and codes are the entry's rank-kernel data: its symbol
	// signature with the label set interned against the store's label
	// dictionary, and its BE-string rewritten as dictionary codes. Both
	// are derived — pure functions of BE and the dictionary, never logged
	// or persisted. The prepare paths (single insert, bulk, import)
	// derive them outside the writer lock; for every other path
	// txn.add/replace do it at install time (see index). After install
	// sig is never nil, so the rank stage reads both without deriving or
	// looking anything up.
	sig   *core.Signature
	codes core.CodedBE
}

// newStored boxes one entry; sig and codes are left for index.
func newStored(id, name string, img core.Image, be core.BEString, seq uint64) *stored {
	return &stored{Entry: Entry{ID: id, Name: name, Image: img, BE: be}, seq: seq}
}

// index derives st's signature and codes against dict unless a prepare
// path already did. st is not yet published, so writing it is safe.
// Interning is what grows the dictionary, and it happens here — before
// the version holding st is published — so a query that pinned a version
// finds every label of every entry in it.
func (st *stored) index(dict *core.LabelDict) {
	if st.sig != nil {
		return
	}
	sig, ids := core.SignatureOf(st.BE).Intern(dict)
	st.sig = &sig
	st.codes = core.EncodeBE(make([]uint32, len(st.BE.X)+len(st.BE.Y)), st.BE, sig.Labels, ids)
}

// defaultShards sizes the shard ring to the machine, floored at 16:
// shards are also the copy-on-write granularity of the commit path
// (txn.shard copies a whole partition on first touch), so on a
// low-core machine GOMAXPROCS alone would make every commit copy a
// huge fraction of the database.
func defaultShards() int {
	return max(runtime.GOMAXPROCS(0), 16)
}

// ShardCount returns the number of partitions of the store.
func (db *DB) ShardCount() int { return len(db.current.Load().shards) }

// SearchStats are the cumulative filter-and-refine counters of a DB:
// how many candidates its ranked queries narrowed, bounded, evaluated
// and pruned since the database was created. They make pruning efficacy
// observable in production — Pruned/Bounded is the fraction of exact
// LCS evaluations the signature bound saved. Counted by DB.Query and
// DB.QueryIter; queries served from an explicit Snapshot are not
// attributed (a Snapshot may outlive the DB handle that minted it).
type SearchStats struct {
	// Queries counts executed ranked/filtered queries (each QueryIter
	// batch counts once).
	Queries uint64 `json:"queries"`
	// Narrowed counts candidates that survived the narrowing stages
	// (label index, region probe, predicate filter) and entered ranking.
	Narrowed uint64 `json:"narrowed"`
	// Bounded counts candidates whose signature upper bound was computed
	// (zero when a query's scorer declares no bound or it ranks no image).
	Bounded uint64 `json:"bounded"`
	// Evaluated counts exact score determinations — scorer runs plus
	// scorer-cache hits (the cache serves the identical exact score, so
	// the filter-and-refine accounting treats both alike; the split is
	// the two cache counters below).
	Evaluated uint64 `json:"evaluated"`
	// Pruned counts candidates rejected on the bound alone — ranking
	// work avoided with zero effect on results.
	Pruned uint64 `json:"pruned"`
	// CacheHits counts exact evaluations served from the scorer cache.
	CacheHits uint64 `json:"cacheHits"`
	// CacheMisses counts cacheable evaluations that had to run the
	// scorer (and then populated the cache).
	CacheMisses uint64 `json:"cacheMisses"`
}

// Stats describes shard occupancy, for capacity monitoring.
type Stats struct {
	// Epoch identifies the version these counts were read from.
	Epoch    uint64 `json:"epoch"`
	Shards   int    `json:"shards"`
	Images   int    `json:"images"`
	PerShard []int  `json:"perShard"`
	// Labels is the size of the store's label dictionary: the distinct
	// icon labels ever installed. Like Search it is a process-lifetime
	// figure, not a property of the pinned version — the dictionary only
	// grows, on writes, never on queries.
	Labels int `json:"labels"`
	// Search holds the cumulative filter-and-refine counters. Unlike the
	// occupancy fields they are process-lifetime totals, not a property
	// of the pinned version.
	Search SearchStats `json:"search"`
}

// Stats reports the entry count per shard plus the cumulative search
// counters. The occupancy counts come from one published version, so
// they are always mutually consistent — a concurrent all-or-nothing
// BulkInsert is visible either entirely or not at all.
func (db *DB) Stats() Stats {
	st := db.current.Load().stats()
	st.Search = db.metrics.searchStats()
	return st
}
