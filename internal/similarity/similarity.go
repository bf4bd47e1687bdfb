// Package similarity turns the per-axis modified-LCS lengths of the 2D
// BE-string model into graded image-similarity scores (paper section 4),
// including the transform-invariant retrieval of rotated and reflected
// images (paper section 5) that needs nothing beyond string reversal.
package similarity

import (
	"bestring/internal/core"
	"bestring/internal/lcs"
)

// Score grades how similar a database image is to a query image.
// All three ratios are monotone in the per-axis LCS lengths; they differ
// only in normalisation. A full accordance of icons and spatial
// relationships yields 1.0 on every ratio; partially matching images —
// missing icons and/or differing relations, the paper's headline use case —
// receive proportionally smaller, still comparable scores.
type Score struct {
	// LX and LY are the modified LCS lengths along the x- and y-axis.
	LX int `json:"lx"`
	LY int `json:"ly"`
	// QueryLen and DBLen are the total string lengths used to normalise.
	QueryLen int `json:"queryLen"`
	DBLen    int `json:"dbLen"`
	// Query is (LX+LY)/QueryLen: the fraction of the query explained by
	// the database image.
	Query float64 `json:"query"`
	// DB is (LX+LY)/DBLen: the fraction of the database image explained by
	// the query.
	DB float64 `json:"db"`
	// F is the harmonic mean of Query and DB — the default ranking key.
	F float64 `json:"f"`
}

// Key returns the default ranking key (the harmonic score). Higher is more
// similar; ties are broken by the caller (imagedb uses image IDs).
func (s Score) Key() float64 { return s.F }

// newScore assembles a Score from raw LCS lengths and axis lengths.
func newScore(lx, ly, qlen, dlen int) Score {
	s := Score{LX: lx, LY: ly, QueryLen: qlen, DBLen: dlen}
	matched := float64(lx + ly)
	if qlen > 0 {
		s.Query = matched / float64(qlen)
	}
	if dlen > 0 {
		s.DB = matched / float64(dlen)
	}
	if s.Query+s.DB > 0 {
		s.F = 2 * s.Query * s.DB / (s.Query + s.DB)
	}
	return s
}

// Evaluate scores a database image against a query image by running the
// modified LCS (Algorithm 2) independently on the two axes. O(mn) time,
// O(min(m,n)) space.
func Evaluate(query, db core.BEString) Score {
	return newScore(
		lcs.Length(query.X, db.X),
		lcs.Length(query.Y, db.Y),
		len(query.X)+len(query.Y),
		len(db.X)+len(db.Y),
	)
}

// EvaluateSymbolsOnly is an ablation scorer: dummies are stripped before
// matching, so only boundary-symbol order (not boundary distinctness) is
// compared. Used by the ablation benches to quantify how much the dummy
// objects contribute to ranking quality.
func EvaluateSymbolsOnly(query, db core.BEString) Score {
	qx, qy := lcs.StripDummies(query.X), lcs.StripDummies(query.Y)
	dx, dy := lcs.StripDummies(db.X), lcs.StripDummies(db.Y)
	return newScore(
		lcs.Length(qx, dx),
		lcs.Length(qy, dy),
		len(qx)+len(qy),
		len(dx)+len(dy),
	)
}

// Match is a Score together with the reconstructed per-axis LCS strings
// (Algorithm 3) — the explainable form of the similarity: exactly which
// boundary symbols and distinctness markers the two images share.
type Match struct {
	Score
	X core.Axis `json:"x"`
	Y core.Axis `json:"y"`
}

// Explain scores like Evaluate but also reconstructs the matched strings.
// It costs the full O(mn) table per axis.
func Explain(query, db core.BEString) Match {
	tx := lcs.NewTable(query.X, db.X)
	ty := lcs.NewTable(query.Y, db.Y)
	return Match{
		Score: newScore(tx.Len(), ty.Len(),
			len(query.X)+len(query.Y), len(db.X)+len(db.Y)),
		X: tx.Reconstruct(),
		Y: ty.Reconstruct(),
	}
}

// InvariantScore is the best score across a set of query transforms,
// remembering which transform achieved it.
type InvariantScore struct {
	Score
	Transform core.Transform `json:"transform"`
}

// EvaluateInvariant scores the database image against every listed
// transform of the query and returns the best (paper section 5: retrieval
// of rotations and reflections only needs the reversed strings — no spatial
// operator conversion). If transforms is empty, core.AllTransforms is used.
func EvaluateInvariant(query, db core.BEString, transforms []core.Transform) InvariantScore {
	if len(transforms) == 0 {
		transforms = core.AllTransforms
	}
	best := InvariantScore{Transform: transforms[0]}
	for _, tr := range transforms {
		s := Evaluate(query.Apply(tr), db)
		if s.Key() > best.Key() {
			best = InvariantScore{Score: s, Transform: tr}
		}
	}
	return best
}

// Identical reports whether the two BE-strings fully accord: every icon and
// every spatial relationship of each is present in the other (score 1.0).
func Identical(a, b core.BEString) bool {
	s := Evaluate(a, b)
	return s.LX == len(a.X) && s.LX == len(b.X) &&
		s.LY == len(a.Y) && s.LY == len(b.Y)
}

// EvaluateCoded is Evaluate over two BE-strings coded against the same
// label dictionary (core.EncodeBE): the same two modified-LCS lengths
// through the integer kernel, the same newScore arithmetic, hence the
// same Score to the last bit. It is what the engine's ranked scan calls;
// Evaluate remains the reference it is tested against.
func EvaluateCoded(query, db core.CodedBE) Score {
	return newScore(
		lcs.LengthCodes(query.X, db.X),
		lcs.LengthCodes(query.Y, db.Y),
		len(query.X)+len(query.Y),
		len(db.X)+len(db.Y),
	)
}

// EvaluateInvariantCoded is EvaluateInvariant with the query's
// transforms applied and coded ahead of time (once per query, not once
// per candidate): the best EvaluateCoded over them, the earliest
// transform winning ties exactly as in EvaluateInvariant.
func EvaluateInvariantCoded(transformed []core.CodedBE, db core.CodedBE) Score {
	var best Score
	for _, q := range transformed {
		if s := EvaluateCoded(q, db); s.Key() > best.Key() {
			best = s
		}
	}
	return best
}

// EvaluateSymbolsOnlyCoded is EvaluateSymbolsOnly with the query
// already stripped of dummies and coded; the database side is used as it
// stands. Its dummies need no stripping: a dummy (code 0) equals no
// symbol of a dummy-free query, and elements that can match nothing do
// not change an LCS, so the lengths — and with the symbol counts as
// normalisers the Score — are those of the stripped pair.
func EvaluateSymbolsOnlyCoded(strippedQuery, db core.CodedBE) Score {
	symbols := func(a []uint32) int {
		n := 0
		for _, c := range a {
			if c != 0 {
				n++
			}
		}
		return n
	}
	return newScore(
		lcs.LengthCodes(strippedQuery.X, db.X),
		lcs.LengthCodes(strippedQuery.Y, db.Y),
		len(strippedQuery.X)+len(strippedQuery.Y),
		symbols(db.X)+symbols(db.Y),
	)
}
