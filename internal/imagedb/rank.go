package imagedb

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bestring/internal/core"
	"bestring/internal/similarity"
)

// rankChunk is how many consecutive candidates a rank worker claims per
// atomic add. Small enough that a few hundred candidates still split
// evenly over the workers and that a cancelled query stops within a
// fraction of a millisecond; large enough that the claim and the context
// check vanish beside the chunk's bound and scorer work.
const rankChunk = 128

// cacheLookupSample is how many scorer-cache lookups a rank worker makes
// per timed one: bestring_scorer_cache_lookup_seconds observes the
// first lookup of every worker and every cacheLookupSample-th after it,
// so its quantiles are those of single lookups and its count is about
// one in cacheLookupSample of the lookups (their count is the hit and
// miss counters). Timing every lookup cost two clock reads and an
// observe, ~190 ns, per candidate.
const cacheLookupSample = 64

// rankTally is one worker's share of the rank stage's counters.
type rankTally struct {
	admitted    int // results counted in Page.Total
	evaluated   int
	halfRefined int
	pruned      int
	cacheHits   int
	cacheMisses int
}

func (t *rankTally) add(o rankTally) {
	t.admitted += o.admitted
	t.evaluated += o.evaluated
	t.halfRefined += o.halfRefined
	t.pruned += o.pruned
	t.cacheHits += o.cacheHits
	t.cacheMisses += o.cacheMisses
}

// cut is the threshold an upper bound of one candidate's score is tested
// against: the bound is rejected when it is below score, or equal to it
// with ties set. Against a full heap's floor, ties is set when the
// candidate's id sorts after the floor's, so rejects(b) is exactly
// worse(Result{id, b}, floor): the result, scoring at most b, would
// lose to the floor on the very comparison topK.add makes.
type cut struct {
	score float64
	ties  bool
}

// noCut rejects nothing.
var noCut = cut{score: math.Inf(-1)}

func (c cut) rejects(bound float64) bool {
	return bound < c.score || (c.ties && bound == c.score)
}

// rankBucket is one run of the visit order: candidates whose bounds are
// all score (+Inf when the scorer declares no bound, or declares a float
// one that each candidate computes for itself), at positions up to end.
type rankBucket struct {
	score float64
	key   int
	end   int
}

// ranker is stage 4 of the pipeline: bound, then exact score, then top-K
// admission over every narrowed candidate. The candidates are the
// narrowed columns themselves (cols: the version's scan columns for an
// un-narrowed query, one owned slice otherwise) or, when the query has a
// Where clause and so an evaluation attached to each survivor, the
// candidate wrappers (filtered); q.dsl says which, the other is not read.
type ranker struct {
	q   *Query
	cur *cursorPos

	// coded is the scorer's integer kernel over entry codes, prepared
	// for this query; nil for scorers that declare none (WithScorerFunc,
	// the type-i baselines, externally registered scorers), which are
	// called as scorer(img, queryBE, entry) instead.
	coded   codedKernel
	img     core.Image
	queryBE core.BEString
	scorer  Scorer

	// lengths (a built-in) or bound (registered with a Bound) is the
	// scorer's bound, nil when it declares none or the query has no
	// ranked image; qsig is the query's signature, interned against the
	// pinned version's dictionary, and qlen the bound's query normaliser.
	lengths *lengthBound
	bound   sigBound
	qsig    *core.Signature
	qlen    int

	cache *scorerCache // nil: not cacheable, or bypassed on first sighting
	qkey  string
	qhash uint64
	met   *dbMetrics

	cols     [][]*stored
	filtered []candidate
}

// rankScratch is the per-query working set of the two rank passes,
// pooled so that a query allocates none of it in the steady state.
type rankScratch struct {
	cands   []candidate // the scan columns flattened (queries without a Where clause)
	keys    []uint64    // per candidate: its bound's (dlen<<32 | m), then its bucket
	order   []int32     // the visit order, as indexes into the candidates
	slots   []int32     // dlen -> bucket row, -1 when no candidate has it
	dlens   []int       // bucket row -> dlen
	counts  []int       // per bucket: its size, then its next free position
	buckets []rankBucket
	tallies []rankTally
	claims  claims
	wg      sync.WaitGroup
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// release drops the scratch's entry pointers, so a pooled scratch does
// not keep a retired version alive, and returns it to the pool.
func (sc *rankScratch) release() {
	clear(sc.cands)
	sc.cands = sc.cands[:0]
	rankScratchPool.Put(sc)
}

// grow returns s resized to n, reallocated (to exactly n) only when its
// capacity falls short.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// deal resets the scratch's claims to deal out [0, n) afresh.
func (sc *rankScratch) deal(n int) *claims {
	sc.claims.next.Store(0)
	sc.claims.n = n
	return &sc.claims
}

// claims deals the positions [0, n) out to rank workers in rankChunk
// runs, one atomic add per claim, and checks the context once per claim:
// no feeder, no hand-off per candidate, and a cancelled query does at
// most one more run per worker.
type claims struct {
	next atomic.Int64
	n    int
}

// take claims the next run; ok is false once every position is dealt
// out or the query was cancelled.
func (c *claims) take(ctx context.Context) (lo, hi int, ok bool) {
	lo = int(c.next.Add(rankChunk)) - rankChunk
	if lo >= c.n || ctx.Err() != nil {
		return 0, 0, false
	}
	return lo, min(lo+rankChunk, c.n), true
}

// rest claims every position not yet dealt out, [lo, n).
func (c *claims) rest() (lo int) {
	return min(int(c.next.Swap(int64(c.n))), c.n)
}

// fanOut runs work(0) … work(workers-1) at once, the first on the
// calling goroutine, and returns when all have.
func fanOut(wg *sync.WaitGroup, workers int, work func(w int)) {
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// run ranks candidates [0, n) into per-worker top-K heaps, in two passes
// over rankChunk claims (Seidl & Kriegel's optimal multi-step k-NN):
//
//  1. The bound pass computes every candidate's bound key (m, dlen). A
//     serial counting pass then orders the candidates by descending
//     bound: each distinct key's bound is computed once, through the
//     scorer's own arithmetic, and only the distinct keys are sorted.
//  2. The refine pass visits the candidates in that order, and stops at
//     the first whose bound loses to the worker's cut: every later one
//     has a bound no higher, so it would lose as well.
//
// A scorer without a bound gives every candidate the bound +Inf, so the
// same refine pass visits them in scan order and never stops early.
// Which worker refines which run varies run to run; the merged ranking
// cannot (see refine). A query that fits one worker runs on the calling
// goroutine.
func (r *ranker) run(ctx context.Context, n, heapK int) ([]*topK, rankTally, error) {
	workers := r.q.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+rankChunk-1)/rankChunk)

	sc := rankScratchPool.Get().(*rankScratch)
	defer sc.release()
	cands := r.filtered
	if r.q.dsl == nil {
		sc.cands = grow(sc.cands, n)
		i := 0
		for _, col := range r.cols {
			for _, st := range col {
				sc.cands[i] = candidate{st: st}
				i++
			}
		}
		cands = sc.cands
	}

	var order []int32
	var buckets []rankBucket
	if r.lengths != nil {
		keys := grow(sc.keys, n)
		sc.keys = keys
		c := sc.deal(n)
		fanOut(&sc.wg, workers, func(int) {
			for lo, hi, ok := c.take(ctx); ok; lo, hi, ok = c.take(ctx) {
				for i := lo; i < hi; i++ {
					m, dlen := r.lengths.lengths(r.qsig, cands[i].st.sig)
					keys[i] = uint64(dlen)<<32 | uint64(m)
				}
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, rankTally{}, err
		}
		order, buckets = sc.boundOrder(keys, r.qlen)
	} else {
		order = grow(sc.order, n)
		for i := range order {
			order[i] = int32(i)
		}
		sc.order = order
		buckets = append(sc.buckets[:0], rankBucket{score: math.Inf(1), end: n})
		sc.buckets = buckets
	}

	heaps := make([]*topK, workers)
	for w := range heaps {
		heaps[w] = newTopK(heapK)
	}
	tallies := append(sc.tallies[:0], make([]rankTally, workers)...)
	sc.tallies = tallies
	c := sc.deal(n)
	fanOut(&sc.wg, workers, func(w int) { r.refine(ctx, c, cands, order, buckets, heaps[w], &tallies[w]) })
	// A worker that saw the cancellation left candidates unscored, and
	// cancellation is sticky, so this one check covers every worker.
	if err := ctx.Err(); err != nil {
		return nil, rankTally{}, err
	}
	var tally rankTally
	for _, t := range tallies {
		tally.add(t)
	}
	return heaps, tally, nil
}

// boundOrder turns the bound pass's keys into the visit order: the
// candidate indexes by descending bound, scan order within a bound, and
// the runs of equal key. Each candidate's key is rewritten to its
// bucket, (its dlen's row) × (qlen+1) + m; m never exceeds the query's
// length qlen. Only the distinct keys — ~43 per query of the harness's
// 20 000-scene corpus — have their bound computed and are sorted.
func (sc *rankScratch) boundOrder(keys []uint64, qlen int) ([]int32, []rankBucket) {
	stride := qlen + 1
	slots, dlens, counts := sc.slots, sc.dlens[:0], sc.counts[:0]
	for i, k := range keys {
		m, dlen := int(uint32(k)), int(k>>32)
		for dlen >= len(slots) {
			slots = append(slots, -1)
		}
		row := slots[dlen]
		if row < 0 {
			row = int32(len(dlens))
			slots[dlen] = row
			dlens = append(dlens, dlen)
			counts = append(counts, make([]int, stride)...)
		}
		b := int(row)*stride + m
		keys[i] = uint64(b)
		counts[b]++
	}
	for _, dlen := range dlens {
		slots[dlen] = -1
	}

	buckets := sc.buckets[:0]
	for b, size := range counts {
		if size > 0 {
			bound := similarity.Harmonic(b%stride, qlen, dlens[b/stride])
			buckets = append(buckets, rankBucket{score: bound, key: b, end: size})
		}
	}
	slices.SortFunc(buckets, func(a, b rankBucket) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	pos := 0
	for j := range buckets {
		counts[buckets[j].key] = pos
		pos += buckets[j].end
		buckets[j].end = pos
	}
	order := grow(sc.order, len(keys))
	for i, b := range keys {
		order[counts[b]] = int32(i)
		counts[b]++
	}
	sc.slots, sc.dlens, sc.counts, sc.buckets, sc.order = slots, dlens, counts, buckets, order
	return order, buckets
}

// cut returns the threshold the bounds of candidate id are tested
// against. With MinScore > 0 it is MinScore: a candidate whose score
// cannot reach it would have been dropped before it was counted. The
// heap's floor is not used then, since a candidate that loses to the
// floor may still count in Total. Otherwise, once the heap is full, it
// is the floor: a rejected candidate would have been turned away by
// h.add, yet counted in Total — its score is >= 0 >= MinScore, and it is
// strictly worse than the cursor position because the floor, admitted
// past the cursor check, is.
func (r *ranker) cut(h *topK, id string) cut {
	switch {
	case r.q.minScore > 0:
		return cut{score: r.q.minScore}
	case h.full():
		floor := h.min()
		return cut{score: floor.Score, ties: id > floor.ID}
	}
	return noCut
}

// reject counts k candidates turned away by the cut without an exact
// score: pruned, and counted in Total when the cut was the heap's floor.
func (r *ranker) reject(t *rankTally, k int) {
	t.pruned += k
	if r.q.minScore <= 0 {
		t.admitted += k
	}
}

// refine runs one worker's share of the refine pass: it claims runs of
// the visit order and scores them into h. Every shortcut compares
// against h alone: a candidate is skipped only when offering its exact
// result to this same heap would provably have been rejected, so each
// heap holds the top K of the candidates its worker scored, and
// every candidate it skipped — including, once it stops, every one not
// yet claimed — loses to its K results. The union of the heaps therefore
// holds the global top K however the runs were dealt out.
func (r *ranker) refine(ctx context.Context, c *claims, cands []candidate, order []int32, buckets []rankBucket, h *topK, t *rankTally) {
	q := r.q
	j := 0 // the bucket of the current position; claims only move forward
	for lo, hi, ok := c.take(ctx); ok; lo, hi, ok = c.take(ctx) {
		for pos := lo; pos < hi; pos++ {
			for buckets[j].end <= pos {
				j++
			}
			cand := cands[order[pos]]
			st := cand.st
			ct := r.cut(h, st.ID)
			if buckets[j].score < ct.score {
				// Every candidate from here on has a bound at most this
				// one's, so it loses to the cut too: this run's rest and
				// every run no worker has claimed yet.
				r.reject(t, hi-pos)
				r.reject(t, c.n-c.rest())
				return
			}
			ub := buckets[j].score
			if r.bound != nil {
				ub = r.bound(r.qsig, st.sig)
			}
			if ct.rejects(ub) {
				r.reject(t, 1)
				continue
			}
			t.evaluated++
			var score float64
			switch {
			case r.cache != nil:
				// A cache is only ever attached to a coded (BE-pure)
				// scorer. A hit skips the whole dynamic program; a miss
				// runs it to the end, since the cache keeps exact scores.
				k := cacheKey{query: r.qkey, entry: st}
				var t0 time.Time
				timed := (t.cacheHits+t.cacheMisses)%cacheLookupSample == 0
				if timed {
					t0 = time.Now()
				}
				s, ok := r.cache.get(r.qhash, k)
				if timed {
					r.met.cacheLookupSeconds.Observe(time.Since(t0).Seconds())
				}
				if ok {
					t.cacheHits++
					score = s
				} else {
					t.cacheMisses++
					score, _ = r.coded(st, noCut)
					r.cache.put(r.qhash, k, score)
				}
			case r.coded != nil:
				var complete bool
				if score, complete = r.coded(st, ct); !complete {
					// A bound from the first stage already lost to the
					// cut: so would the exact score, as above.
					t.halfRefined++
					if q.minScore <= 0 {
						t.admitted++
					}
					continue
				}
			case q.image != nil:
				score = r.scorer(r.img, r.queryBE, st.Entry)
			case q.dsl != nil:
				score = cand.where
			}
			res := Result{ID: st.ID, Name: st.Name, Score: score}
			if res.Score < q.minScore {
				continue
			}
			if r.cur != nil && !worse(res, Result{ID: r.cur.ID, Score: r.cur.Score}) {
				continue
			}
			t.admitted++
			h.add(res)
		}
	}
}
