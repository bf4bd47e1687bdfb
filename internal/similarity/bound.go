// Upper bounds on the BE-LCS similarity computed from symbol signatures
// alone — the "filter" half of the engine's filter-and-refine ranking.
// Every bound here costs O(|labels|) time (one sorted-list merge) and
// provably dominates the exact score its Evaluate* counterpart returns,
// so a ranked search can reject a candidate whose bound already loses to
// the current top-K floor without running the O(mn) dynamic program.
package similarity

import "bestring/internal/core"

// axisUpperBound bounds the modified-LCS length (Algorithm 2) of two
// BE-string axes from their signatures. Three facts compose:
//
//  1. A common subsequence is no longer than either string:
//     LCS <= min(qLen, dLen).
//  2. Every non-dummy token of the LCS is a boundary symbol present in
//     both axes. A label contributes exactly one begin and one end per
//     axis, so the multiset intersection of the non-dummy histograms is
//     2*shared: at most 2*shared non-dummy tokens.
//  3. Dummy tokens of the LCS are bounded by the smaller dummy count,
//     and — because Algorithm 2 never matches two dummies in a row — by
//     one more than the non-dummy token count: min(qDum, dDum, 2*shared+1).
//
// Facts 2+3 bound the LCS by 2*shared + min(qDum, dDum, 2*shared+1);
// fact 1 caps the result.
func axisUpperBound(qLen, qDum, dLen, dDum, shared int) int {
	dums := min(qDum, dDum, 2*shared+1)
	ub := min(2*shared+dums, qLen, dLen)
	return ub
}

// Harmonic is the score F of m matched tokens between a query of q
// tokens and an entry of d: newScore(lx, ly, q, d).F for any split
// lx + ly = m. With those lengths the score reduces to
//
//	F = 2*(m/q)*(m/d) / (m/q + m/d) = 2m / (q + d),
//
// which is monotone increasing in m — so substituting per-axis upper
// bounds for the true LCS lengths bounds F from above. Crucially every
// bound here is computed through the same newScore arithmetic as the
// exact score, not the simplified closed form: when the bound equals
// the true LCS length the two floats are bit-identical (the closed form
// differs from the float path in both directions, which would let
// pruning drop a true top-K result). TestHarmonicArithmetic pins the
// three facts the engine relies on over every (m, q, d) with q, d <=
// 512: F depends on m alone, rises strictly with m and never rises with
// d. Beyond 512 tokens the gap of a whole LCS unit, at least 2/(q+d),
// still dwarfs any rounding difference.
func Harmonic(m, q, d int) float64 {
	return newScore(m, 0, q, d).F
}

// UpperBound bounds Evaluate(q, d).Key() from the two signatures:
// UpperBound(sq, sd) >= Evaluate(q, d).Key() for every query/database
// pair whose signatures are sq and sd. Equality is reached when the two
// images fully accord.
func UpperBound(q, d core.Signature) float64 { return Bound(&q, &d) }

// Bound is UpperBound taking its signatures by pointer — the form the
// engine's rank kernel calls, once per candidate through a function
// value, where copying two ~100-byte structs per call is measurable.
// When both signatures are interned against one dictionary the label
// intersection inside is integer work (core.Signature.SharedLabels);
// the bound's value is the same either way.
func Bound(q, d *core.Signature) float64 {
	m, dlen := BoundLengths(q, d)
	return Harmonic(m, q.Len(), dlen)
}

// BoundLengths is Bound in integer form: the bound's matched length m
// (the two per-axis LCS bounds summed) and the entry's length, so that
// Bound(q, d) == Harmonic(m, q.Len(), dlen). A ranker that needs the
// bound of many entries can key them by (m, dlen) and compute each
// distinct score once.
func BoundLengths(q, d *core.Signature) (m, dlen int) {
	shared := q.SharedLabels(d)
	return axisUpperBound(q.LenX, q.DummiesX, d.LenX, d.DummiesX, shared) +
		axisUpperBound(q.LenY, q.DummiesY, d.LenY, d.DummiesY, shared), d.Len()
}

// StagedBound bounds EvaluateCoded(query, db).Key() once its X-axis
// length lx = LengthX(query, db) is known: the exact lx plus the Y-axis
// bound, through Harmonic. It is never above Bound(q, d) (lx is at most
// its axis bound) and never below the exact score (the Y-axis bound is
// at least the Y-axis length), so a ranker can skip the Y-axis dynamic
// program of a candidate whose staged bound already loses. q and d are
// the signatures of query and db.
func StagedBound(lx int, q, d *core.Signature) float64 {
	uby := axisUpperBound(q.LenY, q.DummiesY, d.LenY, d.DummiesY, q.SharedLabels(d))
	return Harmonic(lx+uby, q.Len(), d.Len())
}

// UpperBoundInvariant bounds EvaluateInvariant(q, d, nil).Key() — the
// best score over all eight dihedral transforms of the query. A
// transform is built from axis reversals and one optional axis swap;
// reversal leaves a signature unchanged (lengths and dummy counts are
// preserved, and flipping begin/end kinds permutes the histogram without
// changing any intersection), so the eight transformed signatures
// collapse to two: the query's own and its axis-swapped twin. The bound
// is the max of the two plain bounds.
func UpperBoundInvariant(q, d core.Signature) float64 { return BoundInvariant(&q, &d) }

// BoundInvariant is the pointer form of UpperBoundInvariant (see Bound).
func BoundInvariant(q, d *core.Signature) float64 {
	m, dlen := BoundInvariantLengths(q, d)
	return Harmonic(m, q.Len(), dlen)
}

// BoundInvariantLengths is BoundInvariant in integer form (see
// BoundLengths): the larger matched-length bound of the query and its
// axis-swapped twin, which share the query's length and labels. Harmonic
// rises strictly with m, so the larger m gives the larger bound.
func BoundInvariantLengths(q, d *core.Signature) (m, dlen int) {
	shared := q.SharedLabels(d)
	plain := axisUpperBound(q.LenX, q.DummiesX, d.LenX, d.DummiesX, shared) +
		axisUpperBound(q.LenY, q.DummiesY, d.LenY, d.DummiesY, shared)
	swapped := axisUpperBound(q.LenY, q.DummiesY, d.LenX, d.DummiesX, shared) +
		axisUpperBound(q.LenX, q.DummiesX, d.LenY, d.DummiesY, shared)
	return max(plain, swapped), d.Len()
}

// UpperBoundSymbolsOnly bounds EvaluateSymbolsOnly(q, d).Key(): dummies
// are stripped before matching, so the per-axis bound loses its dummy
// term and the normaliser shrinks to the symbol counts.
func UpperBoundSymbolsOnly(q, d core.Signature) float64 { return BoundSymbolsOnly(&q, &d) }

// BoundSymbolsOnly is the pointer form of UpperBoundSymbolsOnly (see
// Bound).
func BoundSymbolsOnly(q, d *core.Signature) float64 {
	m, dlen := BoundSymbolsOnlyLengths(q, d)
	return Harmonic(m, q.SymbolLen(), dlen)
}

// BoundSymbolsOnlyLengths is BoundSymbolsOnly in integer form (see
// BoundLengths); its normalisers are the symbol counts, so
// BoundSymbolsOnly(q, d) == Harmonic(m, q.SymbolLen(), dlen).
func BoundSymbolsOnlyLengths(q, d *core.Signature) (m, dlen int) {
	shared := q.SharedLabels(d)
	return min(2*shared, q.LenX-q.DummiesX, d.LenX-d.DummiesX) +
		min(2*shared, q.LenY-q.DummiesY, d.LenY-d.DummiesY), d.SymbolLen()
}
