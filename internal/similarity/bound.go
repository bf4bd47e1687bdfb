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

// boundScore turns per-axis LCS bounds into a bound on the harmonic
// score F. With m = LX+LY, q = qLen, d = dLen, the score reduces to
//
//	F = 2*(m/q)*(m/d) / (m/q + m/d) = 2m / (q + d),
//
// which is monotone increasing in m — so substituting the per-axis upper
// bounds for the true LCS lengths bounds F from above. Crucially the
// bound is computed through the same newScore arithmetic as the exact
// score, not the simplified closed form: when the bound equals the true
// LCS length the two floats are bit-identical (an algebraically equal
// but differently-associated formula can land one ulp below, which
// would let pruning drop a true top-K result), and when the bound is
// larger the score gap of a whole LCS unit, at least 2/(q+d), dwarfs
// any rounding difference.
func boundScore(ubx, uby, qLen, dLen int) float64 {
	return newScore(ubx, uby, qLen, dLen).F
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
	shared := q.SharedLabels(d)
	return boundScore(
		axisUpperBound(q.LenX, q.DummiesX, d.LenX, d.DummiesX, shared),
		axisUpperBound(q.LenY, q.DummiesY, d.LenY, d.DummiesY, shared),
		q.Len(), d.Len())
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
	swapped := q.SwapAxes()
	return max(Bound(q, d), Bound(&swapped, d))
}

// UpperBoundSymbolsOnly bounds EvaluateSymbolsOnly(q, d).Key(): dummies
// are stripped before matching, so the per-axis bound loses its dummy
// term and the normaliser shrinks to the symbol counts.
func UpperBoundSymbolsOnly(q, d core.Signature) float64 { return BoundSymbolsOnly(&q, &d) }

// BoundSymbolsOnly is the pointer form of UpperBoundSymbolsOnly (see
// Bound).
func BoundSymbolsOnly(q, d *core.Signature) float64 {
	shared := q.SharedLabels(d)
	return boundScore(
		min(2*shared, q.LenX-q.DummiesX, d.LenX-d.DummiesX),
		min(2*shared, q.LenY-q.DummiesY, d.LenY-d.DummiesY),
		q.SymbolLen(), d.SymbolLen())
}
