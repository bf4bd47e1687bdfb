package core

import (
	"math/bits"
	"slices"
	"sort"
)

// Signature is the compact symbol-signature of one image's 2D BE-string:
// the per-axis symbol histogram plus the axis lengths, reduced to the
// smallest representation the model permits. It exists to support
// filter-and-refine ranking: from two signatures alone a cheap upper
// bound on the modified-LCS similarity can be computed (see
// internal/similarity), so most candidates of a ranked search are
// rejected without ever running the O(mn) dynamic program.
//
// The reduction is exact, not lossy. In a well-formed BE-string axis
// every icon label contributes exactly one begin and one end boundary
// (labels are unique within an image), so the non-dummy part of the
// per-axis histogram is fully determined by the label set — which is
// itself identical on both axes, since every object projects onto both.
// The only other symbol is the dummy E, counted per axis. A Signature
// therefore stores one sorted label list, two axis lengths and two
// dummy counts, and any multiset-intersection over the real histograms
// can be recovered from it in O(|labels|) time and O(1) extra space.
//
// A Signature is immutable once built; Labels must not be mutated.
//
// A signature may additionally carry its label set interned against a
// LabelDict (Intern, Lookup): the same set as Labels, as dictionary ids.
// That twin is what a store's rank kernel intersects; it changes no
// exported field and no result.
type Signature struct {
	// Labels is the sorted list of distinct icon labels. Each label
	// accounts for one begin and one end symbol on each axis.
	Labels []string `json:"labels"`
	// LenX and LenY are the total axis lengths (symbols plus dummies) —
	// the normalisers of the similarity score.
	LenX int `json:"lenX"`
	LenY int `json:"lenY"`
	// DummiesX and DummiesY count the dummy objects E per axis.
	DummiesX int `json:"dummiesX"`
	DummiesY int `json:"dummiesY"`

	// The interned label set: ids below 64 as bits of low, the rest as
	// the sorted list high — one representation, correct at any
	// vocabulary, that happens to cost a single AND + popcount while the
	// vocabulary is small. dict is the dictionary the ids belong to (nil:
	// not interned). partial records that some label had no id in dict
	// and is therefore missing from the set.
	dict    *LabelDict
	low     uint64
	high    []uint32
	partial bool
}

// SignatureOf computes the signature of a converted image. It is O(n)
// plus the label sort — negligible next to the conversion that produced
// the BE-string, which is why signatures are computed once at
// Convert/insert time and stored, never recomputed per query.
func SignatureOf(be BEString) Signature {
	labels := make([]string, 0, len(be.X)/2)
	dumX := 0
	for _, t := range be.X {
		if t.Dummy {
			dumX++
		} else if t.Kind == Begin {
			labels = append(labels, t.Label)
		}
	}
	sort.Strings(labels)
	return Signature{
		Labels:   labels,
		LenX:     len(be.X),
		LenY:     len(be.Y),
		DummiesX: dumX,
		DummiesY: be.Y.Dummies(),
	}
}

// Len returns the combined axis length |X| + |Y| — the per-image term of
// the similarity score's normaliser.
func (s *Signature) Len() int { return s.LenX + s.LenY }

// SymbolLen returns the combined non-dummy symbol count — the normaliser
// of the dummy-stripped (symbols-only) similarity.
func (s *Signature) SymbolLen() int {
	return s.LenX + s.LenY - s.DummiesX - s.DummiesY
}

// Intern returns the signature with its label set interned against d,
// adding labels d has not seen, together with the id of each label in
// Labels order (the input EncodeBE wants). This is the install-side
// form: every label gets an id, so the interned set is exact.
func (s Signature) Intern(d *LabelDict) (Signature, []uint32) {
	return s.withIDs(d, d.InternAll(s.Labels))
}

// Lookup is the query-side form of Intern: labels d has never held are
// left out of the interned set instead of being added, so a query
// cannot grow the dictionary. Dropping them is sound against any
// signature Intern produced from d — such a signature cannot contain a
// label d does not know.
func (s Signature) Lookup(d *LabelDict) (Signature, []uint32) {
	return s.withIDs(d, d.LookupAll(s.Labels))
}

func (s Signature) withIDs(d *LabelDict, ids []uint32) (Signature, []uint32) {
	s.dict, s.low, s.high, s.partial = d, 0, nil, false
	for _, id := range ids {
		switch {
		case id < 64:
			s.low |= 1 << id
		case id == noLabelID:
			s.partial = true
		default:
			s.high = append(s.high, id)
		}
	}
	slices.Sort(s.high)
	return s, ids
}

// InternedIDs returns the interned label set as sorted ids and the
// dictionary they belong to (nil, nil when the signature is not
// interned).
func (s *Signature) InternedIDs() ([]uint32, *LabelDict) {
	if s.dict == nil {
		return nil, nil
	}
	ids := make([]uint32, 0, bits.OnesCount64(s.low)+len(s.high))
	for w := s.low; w != 0; w &= w - 1 {
		ids = append(ids, uint32(bits.TrailingZeros64(w)))
	}
	return append(ids, s.high...), s.dict
}

// SharedLabels returns the size of the label-set intersection — the
// histogram-intersection primitive behind the LCS upper bound. Two
// signatures interned against the same dictionary intersect as integers:
// one AND + popcount plus a merge of the (usually empty) lists of ids
// 64 and up. Otherwise — and when both sides dropped unknown labels,
// which might be the same label — the sorted label lists are merged as
// strings in O(|a|+|b|). No allocation either way.
func (s *Signature) SharedLabels(o *Signature) int {
	if s.dict != nil && s.dict == o.dict && !(s.partial && o.partial) {
		shared := bits.OnesCount64(s.low & o.low)
		for i, j := 0, 0; i < len(s.high) && j < len(o.high); {
			switch {
			case s.high[i] < o.high[j]:
				i++
			case s.high[i] > o.high[j]:
				j++
			default:
				shared++
				i++
				j++
			}
		}
		return shared
	}
	shared, i, j := 0, 0, 0
	for i < len(s.Labels) && j < len(o.Labels) {
		switch {
		case s.Labels[i] < o.Labels[j]:
			i++
		case s.Labels[i] > o.Labels[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return shared
}

// SwapAxes returns the signature with the X and Y axes exchanged — the
// signature of the image rotated by 90 degrees. Axis reversal (the other
// primitive of the dihedral transforms) changes no field at all: it
// preserves lengths and dummy counts, and flipping every begin/end kind
// permutes the histogram without changing any intersection with another
// signature. SwapAxes therefore lets one signature pair bound the
// similarity under every one of the eight transforms.
func (s Signature) SwapAxes() Signature {
	s.LenX, s.LenY = s.LenY, s.LenX
	s.DummiesX, s.DummiesY = s.DummiesY, s.DummiesX
	return s
}
