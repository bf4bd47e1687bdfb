package similarity

import (
	"fmt"
	"runtime"
	"sync"
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
				for _, c := range pairChecks(p) {
					if err := c.verify(p); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// pairChecks computes the be, invariant and symbols checks of one pair,
// its coded side built by codePair.
func pairChecks(p boundedPair) []scorerCheck {
	sq, sd := core.SignatureOf(p.q), core.SignatureOf(p.d)
	c := codePair(p)
	cq := codeQuery(p.q, c.encode)
	return []scorerCheck{
		{"be", UpperBound(sq, sd), Bound(&c.sq, &c.sd),
			Evaluate(p.q, p.d), EvaluateCoded(cq.plain, c.cd)},
		{"invariant", UpperBoundInvariant(sq, sd), BoundInvariant(&c.sq, &c.sd),
			EvaluateInvariant(p.q, p.d, nil).Score, EvaluateInvariantCoded(cq.transformed, c.cd)},
		{"symbols", UpperBoundSymbolsOnly(sq, sd), BoundSymbolsOnly(&c.sq, &c.sd),
			EvaluateSymbolsOnly(p.q, p.d), EvaluateSymbolsOnlyCoded(cq.stripped, c.cd)},
	}
}

// codedQuery is a query coded the three ways the engine's scorers code
// it: as it stands, under each transform, and stripped of dummies.
type codedQuery struct {
	plain, stripped core.CodedBE
	transformed     []core.CodedBE
}

func codeQuery(q core.BEString, encode func(core.BEString) core.CodedBE) codedQuery {
	transformed := make([]core.CodedBE, len(core.AllTransforms))
	for i, tr := range core.AllTransforms {
		transformed[i] = encode(q.Apply(tr))
	}
	return codedQuery{
		plain:       encode(q),
		stripped:    encode(core.BEString{X: lcs.StripDummies(q.X), Y: lcs.StripDummies(q.Y)}),
		transformed: transformed,
	}
}

// scorerCheck is one scorer's view of one pair: its bound from the
// plain and from the interned signatures, and its score through the
// token and the coded path.
type scorerCheck struct {
	scorer             string
	bound, internBound float64
	exact, codedExact  Score
}

// verify asserts that the bound dominates the token score and lies in
// [0, 1], and that the interned bound and the coded score equal their
// twins bit for bit.
func (c scorerCheck) verify(p boundedPair) error {
	switch {
	case c.bound < c.exact.Key():
		return fmt.Errorf("%s: %s bound %.6f < exact %.6f (q=%s d=%s)",
			p.name, c.scorer, c.bound, c.exact.Key(), p.q, p.d)
	case c.bound < 0 || c.bound > 1+1e-12:
		return fmt.Errorf("%s: %s bound %.6f outside [0, 1]", p.name, c.scorer, c.bound)
	case c.internBound != c.bound:
		return fmt.Errorf("%s: %s interned bound %v != string bound %v", p.name, c.scorer, c.internBound, c.bound)
	case c.codedExact != c.exact:
		return fmt.Errorf("%s: %s coded score %+v != token score %+v (q=%s d=%s)",
			p.name, c.scorer, c.codedExact, c.exact, p.q, p.d)
	}
	return nil
}

// smallScopeImages enumerates every image of one or two objects over
// the labels A and B — labels are unique within an image, so two labels
// cap it at two objects — whose boxes lie on a 2×2 grid: corners at 0,
// 1 or 2 on each axis, degenerate (zero-width or zero-height) boxes
// included. That is 36 boxes, 72 one-object and 1 296 two-object
// images. The set is closed under the eight dihedral transforms.
func smallScopeImages() []core.Image {
	var boxes []core.Rect
	for x0 := 0; x0 <= 2; x0++ {
		for x1 := x0; x1 <= 2; x1++ {
			for y0 := 0; y0 <= 2; y0++ {
				for y1 := y0; y1 <= 2; y1++ {
					boxes = append(boxes, core.NewRect(x0, y0, x1, y1))
				}
			}
		}
	}
	var imgs []core.Image
	for _, label := range []string{"A", "B"} {
		for _, b := range boxes {
			imgs = append(imgs, core.NewImage(2, 2, core.Object{Label: label, Box: b}))
		}
	}
	for _, a := range boxes {
		for _, b := range boxes {
			imgs = append(imgs, core.NewImage(2, 2, core.Object{Label: "A", Box: a}, core.Object{Label: "B", Box: b}))
		}
	}
	return imgs
}

// TestSmallScopeBoundsAndCodes is the small-scope check (Jackson's
// hypothesis: most faults show on some small input, so try all of
// them). Every ordered pair of smallScopeImages — 1 368 images, no two
// with the same BE-string, 1 871 424 pairs — goes through the
// assertions of TestUpperBoundDominatesExact for be, invariant and
// symbols.
//
// The work per image is done once, not once per pair. An entry is
// interned into the dictionary of its label set, which gives it the
// codes codePair's fresh dictionary would (interning follows the
// signature's label order), and every query is coded against each of
// the three dictionaries. The token invariant score is, by
// EvaluateInvariant's definition, the best token be score over the
// query's eight transforms; the set is closed under them, so each is
// the be score of another pair, which a first pass records. The coded
// invariant score runs EvaluateInvariantCoded, the engine's kernel.
func TestSmallScopeBoundsAndCodes(t *testing.T) {
	type entry struct {
		be       core.BEString
		sig      core.Signature
		dict     int
		interned core.Signature
		cd       core.CodedBE
		looked   []core.Signature // as a query, per dictionary
		coded    []codedQuery     // as a query, per dictionary
		turns    []int            // the entry each transform turns it into
	}
	var dicts []*core.LabelDict
	dictOf := map[string]int{}
	index := map[string]int{}
	var entries []entry
	for _, img := range smallScopeImages() {
		be := core.MustConvert(img)
		if _, dup := index[be.String()]; dup {
			t.Fatalf("two images convert to %s", be)
		}
		index[be.String()] = len(entries)
		sig := core.SignatureOf(be)
		key := fmt.Sprint(sig.Labels)
		i, ok := dictOf[key]
		if !ok {
			i = len(dicts)
			dictOf[key] = i
			dicts = append(dicts, core.NewLabelDict())
		}
		interned, ids := sig.Intern(dicts[i])
		cd := core.EncodeBE(make([]uint32, len(be.X)+len(be.Y)), be, interned.Labels, ids)
		entries = append(entries, entry{be: be, sig: sig, dict: i, interned: interned, cd: cd})
	}
	for qi := range entries {
		q := &entries[qi]
		for _, dict := range dicts {
			looked, ids := q.sig.Lookup(dict)
			q.looked = append(q.looked, looked)
			q.coded = append(q.coded, codeQuery(q.be, func(be core.BEString) core.CodedBE {
				return core.EncodeBE(make([]uint32, len(be.X)+len(be.Y)), be, looked.Labels, ids)
			}))
		}
		for _, tr := range core.AllTransforms {
			turned := q.be.Apply(tr)
			j, ok := index[turned.String()]
			if !ok || !entries[j].be.Equal(turned) {
				t.Fatalf("%s under %s leaves the set: %s", q.be, tr, turned)
			}
			q.turns = append(q.turns, j)
		}
	}

	// lengths[qi*n+di] is the be pair's token LCS lengths (x, y).
	n := len(entries)
	lengths := make([][2]uint8, n*n)
	pass := func(check func(qi, di int) error) {
		t.Helper()
		workers := runtime.GOMAXPROCS(0)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi := w; qi < n; qi += workers {
					for di := range n {
						if errs[w] = check(qi, di); errs[w] != nil {
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pair := func(qi, di int) (p boundedPair, q, d *entry) {
		q, d = &entries[qi], &entries[di]
		return boundedPair{"small-scope", q.be, d.be}, q, d
	}
	pass(func(qi, di int) error {
		p, q, d := pair(qi, di)
		be := scorerCheck{"be", UpperBound(q.sig, d.sig), Bound(&q.looked[d.dict], &d.interned),
			Evaluate(q.be, d.be), EvaluateCoded(q.coded[d.dict].plain, d.cd)}
		lengths[qi*n+di] = [2]uint8{uint8(be.exact.LX), uint8(be.exact.LY)}
		symbols := scorerCheck{"symbols", UpperBoundSymbolsOnly(q.sig, d.sig), BoundSymbolsOnly(&q.looked[d.dict], &d.interned),
			EvaluateSymbolsOnly(q.be, d.be), EvaluateSymbolsOnlyCoded(q.coded[d.dict].stripped, d.cd)}
		if err := be.verify(p); err != nil {
			return err
		}
		return symbols.verify(p)
	})
	pass(func(qi, di int) error {
		p, q, d := pair(qi, di)
		var exact Score
		for _, j := range q.turns {
			l := lengths[j*n+di]
			if s := newScore(int(l[0]), int(l[1]), len(q.be.X)+len(q.be.Y), len(d.be.X)+len(d.be.Y)); s.Key() > exact.Key() {
				exact = s
			}
		}
		return scorerCheck{"invariant", UpperBoundInvariant(q.sig, d.sig), BoundInvariant(&q.looked[d.dict], &d.interned),
			exact, EvaluateInvariantCoded(q.coded[d.dict].transformed, d.cd)}.verify(p)
	})
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

// TestHarmonicArithmetic is the soundness gate of every bound the
// engine's ranker derives from lengths — the per-query table of (m, d)
// bucket scores and the staged bound of a half-refined candidate. Over
// every (m, q, d) with q, d <= 512 and m <= min(q, d) — images of up to
// 64 objects at 4n-8n tokens each — it asserts the three facts those
// bounds rest on, bit for bit in float arithmetic:
//
//   - newScore(lx, ly, q, d).F depends on m = lx + ly alone, and
//     Harmonic(m, q, d) is that value (so a table filled through
//     Harmonic serves the exact score, and a bound one ulp low fails);
//   - it rises strictly with m (a larger bound length is a larger
//     bound, so the max of two lengths bounds the max of two scores);
//   - it never rises with d.
//
// The closed form 2m/(q+d) differs from this float path in both
// directions, which is why no bound may use it.
func TestHarmonicArithmetic(t *testing.T) {
	const maxLen = 512
	var prevRow [maxLen + 1]float64 // Harmonic(m, q, d-1) by m
	for q := 0; q <= maxLen; q++ {
		for d := 0; d <= maxLen; d++ {
			prev := -1.0
			for m := 0; m <= min(q, d); m++ {
				f := Harmonic(m, q, d)
				for _, lx := range [...]int{0, m / 2, m} {
					if s := newScore(lx, m-lx, q, d).F; s != f {
						t.Fatalf("newScore(%d, %d, %d, %d).F = %v, Harmonic(%d) = %v: the score depends on the split",
							lx, m-lx, q, d, s, m, f)
					}
				}
				if f <= prev {
					t.Fatalf("Harmonic(%d, %d, %d) = %v <= Harmonic(%d) = %v: not strictly increasing in m", m, q, d, f, m-1, prev)
				}
				if d > 0 && m <= d-1 && f > prevRow[m] {
					t.Fatalf("Harmonic(%d, %d, %d) = %v > %v at d-1: increasing in d", m, q, d, f, prevRow[m])
				}
				prev, prevRow[m] = f, f
			}
		}
	}
}

// TestStagedBoundDominatesExact pins the staged refine: once the X axis
// ran, StagedBound lies between the exact score and the full signature
// bound, and EvaluateCodedFromX completes the exact score bit for bit.
// It also pins the integer invariant bound against its float definition.
func TestStagedBoundDominatesExact(t *testing.T) {
	for _, seed := range []int64{7, 8881, 20010407} {
		for _, p := range workloadPairs(seed) {
			c := codePair(p)
			cq := c.encode(p.q)
			exact := EvaluateCoded(cq, c.cd)
			lx := LengthX(cq, c.cd)
			if got := EvaluateCodedFromX(lx, cq, c.cd); got != exact {
				t.Fatalf("seed %d %s: EvaluateCodedFromX = %+v, EvaluateCoded = %+v", seed, p.name, got, exact)
			}
			staged := StagedBound(lx, &c.sq, &c.sd)
			if staged < exact.Key() || staged > Bound(&c.sq, &c.sd) {
				t.Fatalf("seed %d %s: staged bound %v outside [exact %v, bound %v]",
					seed, p.name, staged, exact.Key(), Bound(&c.sq, &c.sd))
			}
			// The integer invariant bound takes the larger length; by strict
			// monotonicity that is the larger of the two float bounds.
			swapped := c.sq.SwapAxes()
			if inv, want := BoundInvariant(&c.sq, &c.sd), max(Bound(&c.sq, &c.sd), Bound(&swapped, &c.sd)); inv != want {
				t.Fatalf("seed %d %s: BoundInvariant = %v, max over the swapped twin = %v", seed, p.name, inv, want)
			}
		}
	}
}
