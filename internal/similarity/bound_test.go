package similarity

import (
	"fmt"
	"testing"

	"bestring/internal/core"
	"bestring/internal/lcs"
	"bestring/internal/workload"
)

// boundedPair is one (query, database) pair with both representations.
type boundedPair struct {
	name string
	q, d core.BEString
}

// workloadPairs builds a randomized pair set from one seed: scenes
// against scenes, plus the query shapes retrieval actually sees —
// subsets, jittered variants, relabelled distractors and transforms.
func workloadPairs(seed int64) []boundedPair {
	g := workload.NewGenerator(workload.Config{Seed: seed, Vocabulary: 14, Objects: 7})
	scenes := g.Dataset(12)
	var pairs []boundedPair
	add := func(name string, q, d core.Image) {
		pairs = append(pairs, boundedPair{name, core.MustConvert(q), core.MustConvert(d)})
	}
	for i, s := range scenes {
		for j, o := range scenes {
			add(fmt.Sprintf("scene%d-vs-scene%d", i, j), s, o)
		}
		add(fmt.Sprintf("subset-vs-scene%d", i), g.SubsetQuery(s, 3), s)
		add(fmt.Sprintf("jitter-vs-scene%d", i), g.JitterQuery(s, 6), s)
		add(fmt.Sprintf("relabel-vs-scene%d", i), g.RelabelQuery(s, 3), s)
		tq, _ := g.TransformQuery(s)
		add(fmt.Sprintf("transform-vs-scene%d", i), tq, s)
	}
	return pairs
}

// codedPair is a boundedPair as a store's rank kernel sees it: the
// database side interned into a dictionary (which then holds d's labels
// only), the query side merely looked up in it — so a relabelled query's
// labels are unknown to the dictionary, as a hostile query's would be.
type codedPair struct {
	sq, sd core.Signature
	// encode rewrites the query (or a transform or dummy-stripped copy
	// of it) as codes; cd is the coded database side.
	encode func(core.BEString) core.CodedBE
	cd     core.CodedBE
}

func codePair(p boundedPair) codedPair {
	dict := core.NewLabelDict()
	sd, dids := core.SignatureOf(p.d).Intern(dict)
	sq, qids := core.SignatureOf(p.q).Lookup(dict)
	return codedPair{
		sq: sq, sd: sd,
		encode: func(be core.BEString) core.CodedBE {
			return core.EncodeBE(make([]uint32, len(be.X)+len(be.Y)), be, sq.Labels, qids)
		},
		cd: core.EncodeBE(make([]uint32, len(p.d.X)+len(p.d.Y)), p.d, sd.Labels, dids),
	}
}

// TestUpperBoundDominatesExact is the proof-pinning property test of the
// filter-and-refine refactor: for randomized workloads over three seeds,
// every signature bound must dominate the exact score it shortcuts —
// for the plain, transform-invariant and symbols-only scorers alike. A
// single violation would mean pruning can drop a true top-K result.
//
// Every pair is checked twice: through the Token/string reference
// functions, and through what the engine actually runs — interned
// signatures by pointer and the coded scorers — which must give the
// identical bound and the identical score, bit for bit.
func TestUpperBoundDominatesExact(t *testing.T) {
	for _, seed := range []int64{7, 8881, 20010407} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, p := range workloadPairs(seed) {
				sq, sd := core.SignatureOf(p.q), core.SignatureOf(p.d)
				c := codePair(p)
				transformed := make([]core.CodedBE, len(core.AllTransforms))
				for i, tr := range core.AllTransforms {
					transformed[i] = c.encode(p.q.Apply(tr))
				}
				stripped := c.encode(core.BEString{X: lcs.StripDummies(p.q.X), Y: lcs.StripDummies(p.q.Y)})
				checks := []struct {
					scorer             string
					bound, internBound float64
					exact, codedExact  Score
				}{
					{"be", UpperBound(sq, sd), Bound(&c.sq, &c.sd),
						Evaluate(p.q, p.d), EvaluateCoded(c.encode(p.q), c.cd)},
					{"invariant", UpperBoundInvariant(sq, sd), BoundInvariant(&c.sq, &c.sd),
						EvaluateInvariant(p.q, p.d, nil).Score, EvaluateInvariantCoded(transformed, c.cd)},
					{"symbols", UpperBoundSymbolsOnly(sq, sd), BoundSymbolsOnly(&c.sq, &c.sd),
						EvaluateSymbolsOnly(p.q, p.d), EvaluateSymbolsOnlyCoded(stripped, c.cd)},
				}
				for _, c := range checks {
					if c.bound < c.exact.Key() {
						t.Fatalf("%s: %s bound %.6f < exact %.6f (q=%s d=%s)",
							p.name, c.scorer, c.bound, c.exact.Key(), p.q, p.d)
					}
					if c.bound < 0 || c.bound > 1+1e-12 {
						t.Fatalf("%s: %s bound %.6f outside [0, 1]", p.name, c.scorer, c.bound)
					}
					if c.internBound != c.bound {
						t.Fatalf("%s: %s interned bound %v != string bound %v", p.name, c.scorer, c.internBound, c.bound)
					}
					if c.codedExact != c.exact {
						t.Fatalf("%s: %s coded score %+v != token score %+v (q=%s d=%s)",
							p.name, c.scorer, c.codedExact, c.exact, p.q, p.d)
					}
				}
			}
		})
	}
}

// TestUpperBoundTightOnAccord pins the equality case: an image scored
// against itself reaches similarity 1.0, and the bound must not exceed
// it — so bound == exact == 1 on full accordance.
func TestUpperBoundTightOnAccord(t *testing.T) {
	g := workload.NewGenerator(workload.Config{Seed: 3, Vocabulary: 10, Objects: 6})
	for i := 0; i < 8; i++ {
		be := core.MustConvert(g.Scene())
		sig := core.SignatureOf(be)
		if ub := UpperBound(sig, sig); ub != 1 {
			t.Fatalf("self bound = %v, want exactly 1", ub)
		}
		if exact := Evaluate(be, be).Key(); exact != 1 {
			t.Fatalf("self similarity = %v, want exactly 1", exact)
		}
	}
}

// TestUpperBoundDisjointLabels pins the headline pruning win: two images
// sharing no icon label can match at most a single dummy per axis, so
// the bound collapses to nearly zero — these candidates are rejected
// without running the dynamic program.
func TestUpperBoundDisjointLabels(t *testing.T) {
	a := core.MustConvert(core.NewImage(10, 10,
		core.Object{Label: "a", Box: core.NewRect(1, 1, 3, 3)},
		core.Object{Label: "b", Box: core.NewRect(5, 5, 8, 8)}))
	b := core.MustConvert(core.NewImage(10, 10,
		core.Object{Label: "c", Box: core.NewRect(1, 1, 3, 3)},
		core.Object{Label: "d", Box: core.NewRect(5, 5, 8, 8)}))
	sa, sb := core.SignatureOf(a), core.SignatureOf(b)
	ub := UpperBound(sa, sb)
	want := 2 * float64(2) / float64(sa.Len()+sb.Len()) // one lone dummy per axis
	if ub > want {
		t.Fatalf("disjoint bound = %v, want <= %v", ub, want)
	}
	if exact := Evaluate(a, b).Key(); ub < exact {
		t.Fatalf("disjoint bound %v < exact %v", ub, exact)
	}
}
