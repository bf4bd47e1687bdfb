package imagedb

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"bestring/internal/core"
)

// This file is the hot-scorer cache: a sharded, size-bounded LRU memo of
// (query signature, entry version, scorer) → exact score, covering the
// refine stage's surviving evaluations. Repeated queries — the same
// query image re-ranked after writes elsewhere, cursor walks, dashboards
// polling a fixed query — skip the O(m·n) LCS dynamic program for every
// entry whose score is already known.
//
// Invalidation is exact, with zero stamping or epoch bookkeeping, by
// riding the engine's MVCC discipline: a stored entry is immutable once
// any published version references it, and every mutation that touches
// an entry installs a NEW *stored (txn.replace / txn.add allocate; see
// txn.apply). The cache key therefore embeds the *stored pointer
// itself — the entry-version identity. An update can never serve a stale
// score (the new version is a new pointer, a guaranteed miss), and an
// old pinned snapshot walking a cursor still hits the scores of ITS
// entry versions, which remain correct for it by immutability. Epoch
// tracking falls out for free: versions of an entry across epochs are
// distinct pointers, and entries in shards a mutation never touched keep
// their pointers — so exactly the still-valid scores survive. Results
// are byte-identical to the naive full-sort reference whether a score
// came from the cache or from the scorer (pinned by
// TestScorerCacheRankingByteIdentical); the cache can only change how
// fast they arrive.
//
// Only the LCS-family scorers (be, invariant, symbols) are cacheable:
// their score is a function of (query BE-string, entry BE-string) alone,
// so the canonical query-BE encoding plus the entry version pins the
// exact result. The type-i baselines read raw image coordinates, which
// the BE-string does not determine, and always evaluate exactly.
//
// Admission: a query is allowed to use the cache only from the second
// time its key is sighted (see cacheDoorkeeper). A stream of distinct
// queries — an unfiltered ranked scan of ever-new query images — can
// never hit, and letting it fill the cache costs a lock, a map insert
// and a list element per surviving candidate just to evict the entries
// repeating queries would have reused. Such queries bypass the cache
// entirely; a query that does repeat fills it on its second run and
// hits from its third.
//
// Memory: a cached key retains its *stored entry (image + BE-string)
// even after every snapshot dropped it. That is bounded by the LRU
// capacity and is the usual cache trade — dead versions age out of the
// LRU as live traffic replaces them.

// DefaultScorerCacheCapacity is the size bound (entries) of a DB's
// scorer cache.
const DefaultScorerCacheCapacity = 1 << 16

// scorerCacheShards is the lock-striping factor; must be a power of two.
const scorerCacheShards = 16

// cacheKey identifies one memoised evaluation: the canonical (scorer,
// query BE-string) encoding and the entry-version pointer (see the file
// comment for why pointer identity is the exact invalidation).
type cacheKey struct {
	query string
	entry *stored
}

// hashQueryKey is FNV-1a (64-bit) over a query encoding. It is computed
// once per query and serves twice: as the doorkeeper's sighting tag and
// as the seed of the per-candidate stripe routing.
func hashQueryKey(qkey string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(qkey); i++ {
		h ^= uint64(qkey[i])
		h *= prime64
	}
	return h
}

// cacheDoorkeeperSlots is the size of the sighting table: large enough
// that a few hundred interleaved distinct queries rarely overwrite a
// hot query's slot between two of its runs, small enough (32 KiB) to be
// a fixed part of every DB.
const cacheDoorkeeperSlots = 1 << 12

// cacheDoorkeeper remembers which query keys were sighted recently: a
// fixed, direct-mapped table of 64-bit key hashes. It decides only
// WHETHER a query consults the scorer cache, never what the cache
// returns — the cache stays keyed by the full query encoding — so a
// hash collision or an overwritten slot can at worst let a first-time
// query fill the cache or make a repeating one wait one more run.
type cacheDoorkeeper [cacheDoorkeeperSlots]atomic.Uint64

// sighted records the key hash and reports whether its slot already
// held it, i.e. whether this is (at least) the key's second sighting.
func (d *cacheDoorkeeper) sighted(qhash uint64) bool {
	return d[qhash%cacheDoorkeeperSlots].Swap(qhash) == qhash
}

// cacheVal is one LRU element's payload.
type cacheVal struct {
	key   cacheKey
	score float64
}

// cacheShard is one stripe: a mutex, the index map and the recency list
// (front = most recently used).
type cacheShard struct {
	mu  sync.Mutex
	m   map[cacheKey]*list.Element
	lru *list.List
}

// scorerCache is the sharded LRU. Capacity is enforced per shard
// (capacity/scorerCacheShards each), so the bound is exact in total and
// no global lock exists on the hot path.
type scorerCache struct {
	shards    [scorerCacheShards]cacheShard
	perShard  int
	size      atomic.Int64
	evictions atomic.Uint64
}

// newScorerCache returns an LRU bounded to capacity entries.
func newScorerCache(capacity int) *scorerCache {
	per := capacity / scorerCacheShards
	if per < 1 {
		per = 1
	}
	c := &scorerCache{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor routes a key to its stripe: the query's hash (hashQueryKey
// of k.query, computed once per query) continued FNV-style over the
// entry's id, so one hot query image spreads across stripes by entry
// without re-hashing its whole encoding per candidate.
func (c *scorerCache) shardFor(qhash uint64, k cacheKey) *cacheShard {
	const prime64 = 1099511628211
	h := qhash
	for i := 0; i < len(k.entry.ID); i++ {
		h ^= uint64(k.entry.ID[i])
		h *= prime64
	}
	return &c.shards[(h^h>>32)&(scorerCacheShards-1)]
}

// get returns the memoised score and marks the entry most recently
// used. qhash is hashQueryKey(k.query).
func (c *scorerCache) get(qhash uint64, k cacheKey) (float64, bool) {
	s := c.shardFor(qhash, k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return 0, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheVal).score, true
}

// put memoises a score, evicting the stripe's least recently used entry
// when full. A concurrent duplicate put (two workers missing the same
// key) degenerates to a refresh: both computed the same exact score.
func (c *scorerCache) put(qhash uint64, k cacheKey, score float64) {
	s := c.shardFor(qhash, k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		el.Value.(*cacheVal).score = score
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= c.perShard {
		oldest := s.lru.Back()
		if oldest != nil {
			s.lru.Remove(oldest)
			delete(s.m, oldest.Value.(*cacheVal).key)
			c.size.Add(-1)
			c.evictions.Add(1)
		}
	}
	s.m[k] = s.lru.PushFront(&cacheVal{key: k, score: score})
	c.size.Add(1)
}

// Len returns the current number of cached scores.
func (c *scorerCache) Len() int { return int(c.size.Load()) }

// cacheQueryKey canonically encodes the (scorer, query BE-string) half
// of a cache key. Every component is length-prefixed, so the encoding is
// injective: two distinct (scorer, BE) pairs can never collide, which is
// what lets a cache hit stand in for the exact evaluation byte-for-byte.
func cacheQueryKey(scorer string, be core.BEString) string {
	b := make([]byte, 0, len(scorer)+8*(len(be.X)+len(be.Y))+16)
	lenPrefixed := func(str string) {
		b = strconv.AppendInt(b, int64(len(str)), 10)
		b = append(b, ':')
		b = append(b, str...)
	}
	axis := func(a core.Axis) {
		for _, t := range a {
			if t.Dummy {
				b = append(b, 'E', ';')
				continue
			}
			lenPrefixed(t.Label)
			if t.Kind == core.End {
				b = append(b, '-')
			} else {
				b = append(b, '+')
			}
		}
	}
	lenPrefixed(scorer)
	axis(be.X)
	b = append(b, '|')
	axis(be.Y)
	return string(b)
}
