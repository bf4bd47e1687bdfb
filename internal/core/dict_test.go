package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// randomLabelSet draws k distinct labels from a vocabulary of v, sorted
// — the Labels field of a signature.
func randomLabelSet(rng *rand.Rand, v, k int) []string {
	k = min(k, v)
	seen := make(map[string]bool, k)
	for len(seen) < k {
		seen[fmt.Sprintf("icon%03d", rng.Intn(v))] = true
	}
	labels := make([]string, 0, k)
	for l := range seen {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// TestInternedSharedLabelsMatchesStringMerge is the equivalence property
// of the interned label set: for random label sets at vocabularies that
// fit the bitmap (3), fill it exactly (64), spill one id into the
// overflow list (65) and live mostly in it (200), the integer
// intersection equals the sorted string merge — between two installed
// signatures and between an installed one and a query that was only
// looked up, including query labels the dictionary has never held.
func TestInternedSharedLabelsMatchesStringMerge(t *testing.T) {
	for _, v := range []int{3, 64, 65, 200} {
		t.Run(fmt.Sprintf("vocabulary=%d", v), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(v)))
			dict := NewLabelDict()
			var installed []Signature
			for i := 0; i < 60; i++ {
				plain := Signature{Labels: randomLabelSet(rng, v, 1+rng.Intn(12))}
				s, ids := plain.Intern(dict)
				if len(ids) != len(plain.Labels) {
					t.Fatalf("Intern returned %d ids for %d labels", len(ids), len(plain.Labels))
				}
				installed = append(installed, s)
			}
			if dict.Len() > v {
				t.Fatalf("dictionary holds %d labels from a vocabulary of %d", dict.Len(), v)
			}
			size := dict.Len()
			for i := 0; i < 200; i++ {
				// A query over twice the vocabulary: about half its labels
				// are ones no installed signature can carry.
				plain := Signature{Labels: randomLabelSet(rng, 2*v, 1+rng.Intn(12))}
				q, _ := plain.Lookup(dict)
				for _, d := range installed {
					want := (&Signature{Labels: plain.Labels}).SharedLabels(&Signature{Labels: d.Labels})
					if got := q.SharedLabels(&d); got != want {
						t.Fatalf("query %v vs %v: interned %d, string merge %d", plain.Labels, d.Labels, got, want)
					}
					if got := d.SharedLabels(&q); got != want {
						t.Fatalf("%v vs query %v: interned %d, string merge %d", d.Labels, plain.Labels, got, want)
					}
				}
			}
			if dict.Len() != size {
				t.Fatalf("lookups grew the dictionary from %d to %d labels", size, dict.Len())
			}
			for _, a := range installed {
				for _, b := range installed {
					want := (&Signature{Labels: a.Labels}).SharedLabels(&Signature{Labels: b.Labels})
					if got := a.SharedLabels(&b); got != want {
						t.Fatalf("%v vs %v: interned %d, string merge %d", a.Labels, b.Labels, got, want)
					}
				}
			}
		})
	}
}

// TestSharedLabelsAcrossDictionaries pins the guard on the integer path:
// ids are only comparable within one dictionary, and two signatures that
// both dropped unknown labels may have dropped the same one. Both cases
// must fall back to the string merge. The dictionaries here assign the
// shared labels different ids, so comparing ids would give 0.
func TestSharedLabelsAcrossDictionaries(t *testing.T) {
	a, _ := Signature{Labels: []string{"a", "b", "c"}}.Intern(NewLabelDict())
	other := NewLabelDict()
	other.InternAll([]string{"z", "c", "b"})
	b, _ := Signature{Labels: []string{"b", "c", "d"}}.Intern(other)
	if got := a.SharedLabels(&b); got != 2 {
		t.Fatalf("signatures of different dictionaries share %d labels, want 2", got)
	}
	plain := Signature{Labels: []string{"b", "x"}}
	if got := a.SharedLabels(&plain); got != 1 {
		t.Fatalf("interned vs un-interned share %d labels, want 1", got)
	}
	// Two looked-up queries that both carry the unknown label "q".
	dict := NewLabelDict()
	dict.InternAll([]string{"a"})
	q1, _ := Signature{Labels: []string{"a", "q"}}.Lookup(dict)
	q2, _ := Signature{Labels: []string{"q"}}.Lookup(dict)
	if got := q1.SharedLabels(&q2); got != 1 {
		t.Fatalf("two partial signatures share %d labels, want 1 (the label both dropped)", got)
	}
}

// TestEncodeDecodeRoundTrip checks the code layout on converted images:
// dummy is 0, begin/end differ in the low bit, and Decode inverts
// EncodeBE; a looked-up query with an unknown label does not decode.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	dict := NewLabelDict()
	for seed := 0; seed < 50; seed++ {
		be := MustConvert(randomImageForQuick(seed))
		sig, ids := SignatureOf(be).Intern(dict)
		coded := EncodeBE(make([]uint32, len(be.X)+len(be.Y)), be, sig.Labels, ids)
		for i, tok := range be.X {
			c := coded.X[i]
			if tok.Dummy != (c == 0) || !tok.Dummy && (tok.Kind == End) != (c&1 == 1) {
				t.Fatalf("seed %d: token %v coded as %d", seed, tok, c)
			}
		}
		x, okX := dict.Decode(coded.X)
		y, okY := dict.Decode(coded.Y)
		if !okX || !okY || !(BEString{X: x, Y: y}).Equal(be) {
			t.Fatalf("seed %d: decode(encode(be)) = %v | %v, want %v", seed, x, y, be)
		}
		got, from := sig.InternedIDs()
		want := slices.Clone(ids)
		slices.Sort(want)
		if from != dict || !slices.Equal(got, want) {
			t.Fatalf("seed %d: interned ids %v, want %v", seed, got, want)
		}
	}
	stranger := MustConvert(NewImage(10, 10, Object{Label: "never-installed", Box: NewRect(1, 1, 4, 4)}))
	sig, ids := SignatureOf(stranger).Lookup(dict)
	coded := EncodeBE(make([]uint32, len(stranger.X)+len(stranger.Y)), stranger, sig.Labels, ids)
	if _, ok := dict.Decode(coded.X); ok {
		t.Fatal("a query symbol unknown to the dictionary decoded to an installed label")
	}
}

// TestLabelDictConcurrentIntern interns overlapping label sets from many
// goroutines while others look up (run under -race): ids stay dense,
// every label gets exactly one id, and a lookup never invents one.
func TestLabelDictConcurrentIntern(t *testing.T) {
	dict := NewLabelDict()
	const workers, vocab = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				labels := randomLabelSet(rng, vocab, 6)
				if w%2 == 0 {
					dict.InternAll(labels)
					continue
				}
				for j, id := range dict.LookupAll(labels) {
					if l, ok := dict.Label(id); ok && l != labels[j] {
						t.Errorf("lookup of %q returned the id of %q", labels[j], l)
					}
				}
			}
		}()
	}
	wg.Wait()
	n := dict.Len()
	if n == 0 || n > vocab {
		t.Fatalf("dictionary holds %d labels, want 1..%d", n, vocab)
	}
	seen := make(map[string]bool, n)
	for id := 0; id < n; id++ {
		l, ok := dict.Label(uint32(id))
		if !ok || seen[l] {
			t.Fatalf("id %d: label %q ok=%v duplicate=%v", id, l, ok, seen[l])
		}
		seen[l] = true
		if got := dict.InternAll([]string{l}); got[0] != uint32(id) {
			t.Fatalf("label %q re-interned as %d, want %d", l, got[0], id)
		}
	}
}

// BenchmarkSharedLabels measures the bound's intersection primitive on
// realistic signatures (8 labels from a vocabulary of 64, the harness
// corpus shape): the sorted string merge against the interned popcount.
func BenchmarkSharedLabels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dict := NewLabelDict()
	const n = 1024
	plain, interned := make([]Signature, n), make([]Signature, n)
	for i := range plain {
		plain[i] = Signature{Labels: randomLabelSet(rng, 64, 8)}
		interned[i], _ = plain[i].Intern(dict)
	}
	for _, bc := range []struct {
		name string
		sigs []Signature
	}{{"string", plain}, {"interned", interned}} {
		b.Run(bc.name, func(b *testing.B) {
			q := &bc.sigs[0]
			for i := 0; i < b.N; i++ {
				sinkInt += q.SharedLabels(&bc.sigs[i%n])
			}
		})
	}
}

var sinkInt int
