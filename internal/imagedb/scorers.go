package imagedb

import (
	"fmt"
	"sort"
	"sync"

	"bestring/internal/baseline/typesim"
	"bestring/internal/core"
	"bestring/internal/lcs"
	"bestring/internal/similarity"
)

// DefaultScorerName is the registry name resolved when a query names no
// scorer: the paper's BE-LCS similarity.
const DefaultScorerName = "be"

// Bound computes a cheap upper bound on a scorer's exact score from the
// two symbol signatures alone — the "filter" half of filter-and-refine
// ranking. A registered bound must satisfy, for every query/entry pair:
//
//	bound(SignatureOf(queryBE), SignatureOf(entry.BE)) >= scorer(query, queryBE, entry) >= 0
//
// at float level, not merely mathematically. The engine relies on both
// inequalities to skip exact evaluations without changing results: a
// candidate is pruned only when its bound already loses to the current
// top-K floor or the MinScore threshold, which is sound only if the
// exact score can never exceed the bound (and never dip below zero,
// which the admission accounting assumes). A violating bound silently
// corrupts rankings; when a cheap sound bound does not exist for a
// scorer, register it without one and it is evaluated exactly for every
// candidate.
type Bound func(query, entry core.Signature) float64

// sigBound is the shape the rank kernel calls a bound in: the two
// signatures by pointer (they are ~100 bytes each, and the call goes
// through a function value once per candidate). The query signature is
// interned against the pinned version's label dictionary, like every
// installed entry's, so the label intersection inside the built-in
// bounds is integer work. An externally registered Bound is wrapped
// into this shape once, at registration.
type sigBound func(query, entry *core.Signature) float64

// codedScorer is the integer form of a BE-pure scorer. It is called
// once per query with the query BE-string and an encoder that rewrites
// the query (or any reordering of its symbols — a transform, a
// dummy-stripped copy) as codes of the pinned version's label
// dictionary, and returns the per-entry kernel: entry codes in, exactly
// the score Scorer would return out.
type codedScorer func(queryBE core.BEString, encode beEncoder) codedKernel

type (
	// beEncoder rewrites a BE-string over the query's labels as codes.
	beEncoder func(core.BEString) core.CodedBE
	// codedKernel scores one entry, given as its codes.
	codedKernel func(entry core.CodedBE) float64
)

// registeredScorer pairs a scorer with its (optional) bound and its
// (optional) coded kernel. Declaring a coded kernel is what marks a
// scorer BE-pure: its exact score is a function of the two BE-strings
// alone — no image coordinates, no hidden state. That lets the rank
// stage score entry codes instead of calling score, and lets the scorer
// cache key an evaluation by (query BE, entry version, name) and serve
// it byte-identically later (see scorercache.go). Externally registered
// scorers never carry one: the engine cannot verify the property, and a
// wrong claim would silently corrupt rankings, so only the audited
// built-ins opt in.
type registeredScorer struct {
	score Scorer
	bound sigBound
	coded codedScorer
}

// scorerRegistry maps scorer names to implementations, so every surface
// (library, CLI, REST) resolves method strings through one table instead
// of each re-implementing the switch.
var scorerRegistry = struct {
	mu sync.RWMutex
	m  map[string]registeredScorer
}{m: builtinScorers()}

// RegisterScorer adds a named scorer to the registry, with no bound:
// queries ranking with it evaluate every candidate exactly. Names are
// case-sensitive, must be non-empty and must not collide with a
// registered name. The built-in names (be, invariant, type0, type1,
// type2, symbols) are registered at package init.
func RegisterScorer(name string, s Scorer) error {
	return RegisterBoundedScorer(name, s, nil)
}

// RegisterBoundedScorer adds a named scorer together with its upper
// bound, enabling filter-and-refine pruning for queries that rank with
// it. The bound must obey the Bound contract; nil means exact-only
// (identical to RegisterScorer).
func RegisterBoundedScorer(name string, s Scorer, b Bound) error {
	if name == "" {
		return fmt.Errorf("register scorer: empty name")
	}
	if s == nil {
		return fmt.Errorf("register scorer %q: nil scorer", name)
	}
	scorerRegistry.mu.Lock()
	defer scorerRegistry.mu.Unlock()
	if _, exists := scorerRegistry.m[name]; exists {
		return fmt.Errorf("register scorer %q: already registered", name)
	}
	r := registeredScorer{score: s}
	if b != nil {
		r.bound = func(query, entry *core.Signature) float64 { return b(*query, *entry) }
	}
	scorerRegistry.m[name] = r
	return nil
}

// ScorerCacheable reports whether the named scorer's evaluations are
// eligible for the scorer cache (BE-pure built-ins). The empty name
// resolves to DefaultScorerName.
func ScorerCacheable(name string) bool {
	r, ok := lookupRegistered(name)
	return ok && r.coded != nil
}

// lookupRegistered resolves a registry entry by name. The empty name
// resolves to DefaultScorerName.
func lookupRegistered(name string) (registeredScorer, bool) {
	if name == "" {
		name = DefaultScorerName
	}
	scorerRegistry.mu.RLock()
	defer scorerRegistry.mu.RUnlock()
	r, ok := scorerRegistry.m[name]
	return r, ok
}

// LookupScorer resolves a registered scorer by name. The empty name
// resolves to DefaultScorerName.
func LookupScorer(name string) (Scorer, bool) {
	r, ok := lookupRegistered(name)
	return r.score, ok
}

// LookupBound resolves the upper bound a registered scorer declared.
// The empty name resolves to DefaultScorerName; ok is false when the
// scorer is unknown or registered without a bound (exact-only).
func LookupBound(name string) (Bound, bool) {
	r, ok := lookupRegistered(name)
	if !ok || r.bound == nil {
		return nil, false
	}
	return func(query, entry core.Signature) float64 { return r.bound(&query, &entry) }, true
}

// ScorerNames lists the registered scorer names, sorted.
func ScorerNames() []string {
	scorerRegistry.mu.RLock()
	defer scorerRegistry.mu.RUnlock()
	names := make([]string, 0, len(scorerRegistry.m))
	for name := range scorerRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// builtinScorers is the registry's initial content.
func builtinScorers() map[string]registeredScorer {
	// The LCS-family scorers declare the signature bounds proven in
	// internal/similarity (UB >= exact is pinned by property test) and,
	// being BE-pure (their score reads only the two BE-strings), the
	// coded kernels that compute the identical score over dictionary
	// codes; the clique-based type-i baselines read raw image
	// coordinates, which the BE-string does not determine, have no cheap
	// sound bound, and stay exact-only, uncoded and uncached — as does
	// any custom WithScorerFunc scorer.
	return map[string]registeredScorer{
		"be": {
			score: BEScorer(), bound: similarity.Bound,
			coded: func(q core.BEString, encode beEncoder) codedKernel {
				cq := encode(q)
				return func(e core.CodedBE) float64 { return similarity.EvaluateCoded(cq, e).Key() }
			},
		},
		"invariant": {
			score: InvariantScorer(nil), bound: similarity.BoundInvariant,
			coded: func(q core.BEString, encode beEncoder) codedKernel {
				// Transform as tokens, then encode: a reversed axis is
				// re-canonicalised by label string, an order codes do not
				// carry. Eight small encodings per query, none per entry.
				cqs := make([]core.CodedBE, len(core.AllTransforms))
				for i, tr := range core.AllTransforms {
					cqs[i] = encode(q.Apply(tr))
				}
				return func(e core.CodedBE) float64 { return similarity.EvaluateInvariantCoded(cqs, e).Key() }
			},
		},
		"symbols": {
			score: SymbolsOnlyScorer(), bound: similarity.BoundSymbolsOnly,
			coded: func(q core.BEString, encode beEncoder) codedKernel {
				cq := encode(core.BEString{X: lcs.StripDummies(q.X), Y: lcs.StripDummies(q.Y)})
				return func(e core.CodedBE) float64 { return similarity.EvaluateSymbolsOnlyCoded(cq, e).Key() }
			},
		},
		"type0": {score: TypeSimScorer(typesim.Type0)},
		"type1": {score: TypeSimScorer(typesim.Type1)},
		"type2": {score: TypeSimScorer(typesim.Type2)},
	}
}
