package imagedb

import (
	"cmp"
	"slices"

	"bestring/internal/core"
)

// This file is the narrowing layer: the per-shard inverted label index
// as sorted integer posting runs, and the one expression of merges over
// them that hands the rank stage fewer candidates.
//
// A posting run is the list of a shard's entries holding one label —
// their insertion sequence numbers (stored.seq), ascending, each once.
// The seq is the key because it is stable for an entry's whole life
// (an object update keeps it) and because the shard's scan column is in
// the same order, so a run resolves to entries by a forward search of
// that column: no id string, no hash probe, no per-query map.
//
// Runs are shared between versions. A version owns the first len(run)
// elements of a run's backing array and nothing past them, so the one
// writer may append in place — a new entry's seq exceeds every seq
// issued before it — while readers of older versions, whose run headers
// are shorter, never look at the new element. Every other change
// (removal, or an object update bringing a label to an old entry)
// copies the run.

// runInsert returns run with seq added.
func runInsert(run []uint64, seq uint64) []uint64 {
	if n := len(run); n == 0 || run[n-1] < seq {
		return append(run, seq)
	}
	i, _ := slices.BinarySearch(run, seq)
	out := make([]uint64, 0, len(run)+1)
	return append(append(append(out, run[:i]...), seq), run[i:]...)
}

// runRemove returns run without seq; a run emptied this way is nil.
func runRemove(run []uint64, seq uint64) []uint64 {
	i, found := slices.BinarySearch(run, seq)
	if !found {
		return run
	}
	if len(run) == 1 {
		return nil
	}
	out := make([]uint64, 0, len(run)-1)
	return append(append(out, run[:i]...), run[i+1:]...)
}

// intersectRuns appends a ∩ b to dst. dst may be a[:0]: the write
// position never passes the read position.
func intersectRuns(dst, a, b []uint64) []uint64 {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i], b[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

// unionRuns appends a ∪ b to dst, which must share no memory with
// either.
func unionRuns(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x < y:
			dst = append(dst, x)
			i++
		case x > y:
			dst = append(dst, y)
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
}

// scanIndex returns the position in a scan column (ascending by seq) of
// the entry with the given seq, which must be there.
func scanIndex(scan []*stored, seq uint64) int {
	i, _ := slices.BinarySearchFunc(scan, seq, func(st *stored, seq uint64) int {
		return cmp.Compare(st.seq, seq)
	})
	return i
}

// resolveRun appends to out the entries of scan a run names. Both are
// ascending by seq and every seq of the run is in the column, so one
// forward pass finds them: from the previous hit, gallop to an entry at
// or past the wanted seq, then bisect the last stride. A dense run costs
// a step or two per entry, a sparse one the logarithm of its gaps.
func resolveRun(out, scan []*stored, run []uint64) []*stored {
	pos := 0
	for _, seq := range run {
		i := pos
		if scan[i].seq < seq {
			step := 1
			for i+step < len(scan) && scan[i+step].seq < seq {
				i += step
				step <<= 1
			}
			lo, hi := i+1, min(i+step, len(scan)-1)
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); scan[mid].seq < seq {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			i = lo
		}
		out = append(out, scan[i])
		pos = i + 1
	}
	return out
}

// narrowing is what a query can narrow by before it looks at a single
// entry, compiled once against the pinned version's dictionary: up to
// three groups of labels, each a set of images, intersected.
//
//   - where: a Where constraint "A op B" can only hold on an image
//     carrying both labels, so it contributes post[A] ∩ post[B]. When
//     every constraint must hold the constraints intersect; otherwise an
//     image needs at least one to hold (Eval counts a constraint with an
//     absent label as unsatisfied, and a zero fraction never passes), so
//     they unite.
//   - shared: LabelPrefilter keeps images sharing a label with the query
//     image — the union of those labels' runs.
//   - region: a labelled region can only match an image holding the
//     label — its run.
//
// A label the dictionary has never seen has no run, which is exactly
// right: no image holds it. What survives is a superset of the query's
// answer; the geometric region test and the Where evaluation then run on
// the survivors alone.
type narrowing struct {
	where  [][2]uint32
	all    bool
	shared []uint32
	region []uint32 // the region label's id: zero or one element

	// Scratch, reused from shard to shard.
	acc, alt, spare, pair []uint64
}

// compileNarrowing resolves the query's narrowing labels to ids with one
// dictionary lookup. whereMin is the resolved Where threshold.
func compileNarrowing(dict *core.LabelDict, q *Query, whereMin float64) narrowing {
	var labels []string
	if q.dsl != nil {
		for _, c := range q.dsl.Constraints {
			labels = append(labels, c.A, c.B)
		}
	}
	nwhere := len(labels)
	if q.image != nil && q.labelPrefilter {
		labels = append(labels, queryLabels(*q.image)...)
	}
	nshared := len(labels)
	if q.region != nil && q.regionLabel != "" {
		labels = append(labels, q.regionLabel)
	}
	var n narrowing
	if len(labels) == 0 {
		return n
	}
	ids := dict.LookupAll(labels)
	for i := 0; i < nwhere; i += 2 {
		n.where = append(n.where, [2]uint32{ids[i], ids[i+1]})
	}
	// With c constraints the fractions are 0, 1/c, …, 1: the threshold
	// asks for all of them exactly when the next lower fraction fails it.
	if c := nwhere / 2; c > 0 {
		n.all = float64(c-1)/float64(c) < whereMin
	}
	n.shared, n.region = ids[nwhere:nshared], ids[nshared:]
	return n
}

// active reports whether the query narrows by postings at all.
func (n *narrowing) active() bool {
	return len(n.where)+len(n.shared)+len(n.region) > 0
}

// estimate bounds the narrowed set from run lengths alone, O(shards) per
// label: a pair by its shorter run, a union by the sum, the whole by its
// smallest group, clamped to the corpus.
func (n *narrowing) estimate(s *snapshot) int {
	runLen := func(label uint32) int {
		sum := 0
		for _, sv := range s.shards {
			sum += len(sv.run(label))
		}
		return sum
	}
	est := s.count
	if len(n.where) > 0 {
		w := 0
		for i, p := range n.where {
			pair := min(runLen(p[0]), runLen(p[1]))
			if n.all && i > 0 {
				w = min(w, pair)
			} else {
				w += pair
			}
		}
		est = min(est, w)
	}
	if len(n.shared) > 0 {
		u := 0
		for _, l := range n.shared {
			u += runLen(l)
		}
		est = min(est, u)
	}
	for _, l := range n.region {
		est = min(est, runLen(l))
	}
	return est
}

// run evaluates the expression on one shard and returns the narrowed
// run. The result is scratch: valid until the next call.
func (n *narrowing) run(sv *shardView) []uint64 {
	acc, first := n.acc[:0], true
	and := func(run []uint64) {
		if first {
			acc, first = append(acc, run...), false
		} else {
			acc = intersectRuns(acc[:0], acc, run)
		}
	}
	// or unites run into u through the spare buffer and recycles u's.
	or := func(u, run []uint64) []uint64 {
		out := unionRuns(n.spare[:0], u, run)
		n.spare = u
		return out
	}
	switch {
	case n.all:
		for _, p := range n.where {
			and(sv.run(p[0]))
			and(sv.run(p[1]))
		}
	case len(n.where) > 0:
		u := n.alt[:0]
		for _, p := range n.where {
			n.pair = intersectRuns(n.pair[:0], sv.run(p[0]), sv.run(p[1]))
			u = or(u, n.pair)
		}
		and(u)
		n.alt = u
	}
	if len(n.shared) > 0 {
		u := n.alt[:0]
		for _, l := range n.shared {
			u = or(u, sv.run(l))
		}
		and(u)
		n.alt = u
	}
	for _, l := range n.region {
		and(sv.run(l))
	}
	n.acc = acc
	return acc
}

// ImagesWithLabel returns the ids of images containing the icon label,
// in insertion order (the label's posting runs, gathered across shards).
func (db *DB) ImagesWithLabel(label string) []string {
	snap := db.current.Load()
	id := snap.dict.LookupAll([]string{label})[0]
	var sts []*stored
	for _, sv := range snap.shards {
		sts = resolveRun(sts, sv.scan, sv.run(id))
	}
	return idsBySeq(sts)
}
