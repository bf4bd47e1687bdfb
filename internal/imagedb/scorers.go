package imagedb

import (
	"bestring/internal/baseline/typesim"
	"bestring/internal/core"
	"bestring/internal/lcs"
	"bestring/internal/similarity"
)

// DefaultScorerName is the scorer resolved when a query names none: the
// paper's BE-LCS similarity.
const DefaultScorerName = "be"

// lengthBound is a scorer's upper bound in integer form: lengths
// returns the bound's matched length m and the entry's normaliser, norm
// the query's, and the bound is similarity.Harmonic(m, norm(query),
// dlen). The score depends on nothing else, so the rank stage keys every
// candidate by (m, dlen), computes each distinct bound once per query
// and visits the candidates in descending bound order without sorting
// them (see ranker). The query signature is interned against the pinned
// version's label dictionary, like every installed entry's, so the label
// intersection inside is integer work. The bound must dominate the
// exact score at float level; DESIGN.md section 7 states the contract
// and the tests that pin it.
type lengthBound struct {
	lengths func(query, entry *core.Signature) (m, dlen int)
	norm    func(query *core.Signature) int
}

// float is the bound as a float function of the two signatures.
func (b *lengthBound) float(query, entry *core.Signature) float64 {
	m, dlen := b.lengths(query, entry)
	return similarity.Harmonic(m, b.norm(query), dlen)
}

type (
	// beEncoder rewrites a BE-string over the query's labels as codes.
	beEncoder func(core.BEString) core.CodedBE
	// scoreKernel scores one entry: its exact score, and complete =
	// true. A kernel that computes its score in stages may stop after
	// one, once an upper bound of the score is what c rejects; it then
	// returns complete = false and no score. A kernel handed noCut
	// always completes.
	scoreKernel func(entry *stored, c cut) (score float64, complete bool)
)

// preparedQuery is what a scorer builds its per-query kernel from: the
// query image, its BE-string, its signature (interned like the
// entries') and an encoder that rewrites the query — or any reordering
// of its symbols, a transform, a dummy-stripped copy — as codes of the
// pinned version's label dictionary.
type preparedQuery struct {
	img    core.Image
	be     core.BEString
	sig    *core.Signature
	encode beEncoder
}

// namedScorer is one of the engine's closed set of scorers.
type namedScorer struct {
	name string
	// lengths is the scorer's bound; nil when it has no cheap sound one
	// (the type-i baselines), and every candidate is then scored.
	lengths *lengthBound
	// cacheable marks a scorer whose exact score is a function of the
	// two BE-strings alone, so the scorer cache can key an evaluation
	// by (query BE, entry version, name) and serve it byte-identically
	// later (see scorercache.go).
	cacheable bool
	// kernel prepares the per-query kernel.
	kernel func(q *preparedQuery) scoreKernel
}

// scorers is the closed set, in name order. The LCS family scores entry
// codes, with the signature bounds proven in internal/similarity in
// integer form (UB >= exact is pinned by property tests, the arithmetic
// by TestHarmonicArithmetic). The clique-based type-i baselines read
// image coordinates, which the BE-string does not determine: they have
// no cheap sound bound and are not cacheable.
var scorers = [...]namedScorer{
	{
		name:      "be",
		lengths:   &lengthBound{similarity.BoundLengths, (*core.Signature).Len},
		cacheable: true,
		kernel: func(q *preparedQuery) scoreKernel {
			cq, qsig := q.encode(q.be), q.sig
			// Staged: the X axis first, and the Y axis only while the
			// exact X length plus the Y axis's bound can still pass.
			return func(e *stored, c cut) (float64, bool) {
				lx := similarity.LengthX(cq, e.codes)
				if c.rejects(similarity.StagedBound(lx, qsig, e.sig)) {
					return 0, false
				}
				return similarity.EvaluateCodedFromX(lx, cq, e.codes).Key(), true
			}
		},
	},
	{
		name:      "invariant",
		lengths:   &lengthBound{similarity.BoundInvariantLengths, (*core.Signature).Len},
		cacheable: true,
		kernel: func(q *preparedQuery) scoreKernel {
			// Transform as tokens, then encode: a reversed axis is
			// re-canonicalised by label string, an order codes do not
			// carry. Eight small encodings per query, none per entry.
			cqs := make([]core.CodedBE, len(core.AllTransforms))
			for i, tr := range core.AllTransforms {
				cqs[i] = q.encode(q.be.Apply(tr))
			}
			return func(e *stored, _ cut) (float64, bool) {
				return similarity.EvaluateInvariantCoded(cqs, e.codes).Key(), true
			}
		},
	},
	{
		name:      "symbols",
		lengths:   &lengthBound{similarity.BoundSymbolsOnlyLengths, (*core.Signature).SymbolLen},
		cacheable: true,
		kernel: func(q *preparedQuery) scoreKernel {
			cq := q.encode(core.BEString{X: lcs.StripDummies(q.be.X), Y: lcs.StripDummies(q.be.Y)})
			return func(e *stored, _ cut) (float64, bool) {
				return similarity.EvaluateSymbolsOnlyCoded(cq, e.codes).Key(), true
			}
		},
	},
	{name: "type0", kernel: typeKernel(typesim.Type0)},
	{name: "type1", kernel: typeKernel(typesim.Type1)},
	{name: "type2", kernel: typeKernel(typesim.Type2)},
}

// typeKernel scores by the clique-based type-i similarity, normalised
// by the query object count — the 2-D string family baseline.
func typeKernel(level typesim.Level) func(*preparedQuery) scoreKernel {
	return func(q *preparedQuery) scoreKernel {
		img := q.img
		return func(e *stored, _ cut) (float64, bool) {
			return typesim.NormalizedScore(typesim.Similarity(img, e.Image, level), img), true
		}
	}
}

// lookupScorer resolves a scorer by name. The empty name resolves to
// DefaultScorerName.
func lookupScorer(name string) (*namedScorer, bool) {
	if name == "" {
		name = DefaultScorerName
	}
	for i := range scorers {
		if scorers[i].name == name {
			return &scorers[i], true
		}
	}
	return nil, false
}

// LookupBound resolves the named scorer's upper bound on its exact
// score, computed from the two symbol signatures alone. The empty name
// resolves to DefaultScorerName; ok is false when the name is unknown or
// the scorer has no bound (the type-i baselines).
func LookupBound(name string) (bound func(query, entry core.Signature) float64, ok bool) {
	s, ok := lookupScorer(name)
	if !ok || s.lengths == nil {
		return nil, false
	}
	return func(query, entry core.Signature) float64 { return s.lengths.float(&query, &entry) }, true
}

// ScorerNames lists the scorer names, sorted.
func ScorerNames() []string {
	names := make([]string, len(scorers))
	for i := range scorers {
		names[i] = scorers[i].name
	}
	return names
}
