package core

import (
	"sort"
	"sync"
)

// LabelDict is an append-only dictionary from icon labels to dense
// integer ids (0, 1, 2, … in first-seen order). It exists so the rank
// kernel of a store can compare integers where the model compares label
// strings: signatures intern their label set against it (Signature.Intern)
// and BE-string axes are rewritten as id codes (EncodeBE).
//
// The dictionary is derived data, like a signature: a pure function of
// the labels a store has installed, in install order. It is never
// logged or persisted and is rebuilt by whatever path re-installs the
// entries. Ids are only meaningful relative to the dictionary that
// issued them, which is why every interned value remembers its
// dictionary.
//
// Writers Intern, readers Lookup. A label Lookup does not find maps to
// no id at all — the caller encodes it as a sentinel that equals no
// installed symbol — so a reader can never grow the dictionary.
//
// Safe for concurrent use. One plain mutex: an entry resolves all its
// labels under a single acquisition (InternAll/LookupAll), so the lock
// is taken once per installed entry and once per query.
type LabelDict struct {
	mu     sync.Mutex
	ids    map[string]uint32
	labels []string
}

// NewLabelDict returns an empty dictionary.
func NewLabelDict() *LabelDict {
	return &LabelDict{ids: make(map[string]uint32)}
}

// noLabelID marks a label absent from the dictionary in LookupAll's
// output. A dictionary cannot reach it: 2^31 distinct label strings do
// not fit in memory.
const noLabelID = 1<<31 - 2

// InternAll resolves every label to its id, assigning the next dense id
// to labels the dictionary has not seen. The ids are in input order.
func (d *LabelDict) InternAll(labels []string) []uint32 {
	ids := make([]uint32, 0, len(labels))
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range labels {
		id, ok := d.ids[l]
		if !ok {
			id = uint32(len(d.labels))
			d.ids[l] = id
			d.labels = append(d.labels, l)
		}
		ids = append(ids, id)
	}
	return ids
}

// LookupAll resolves every label to its id without ever adding one; a
// label the dictionary has never held resolves to an id no installed
// symbol carries. The ids are in input order.
func (d *LabelDict) LookupAll(labels []string) []uint32 {
	ids := make([]uint32, 0, len(labels))
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range labels {
		id, ok := d.ids[l]
		if !ok {
			id = noLabelID
		}
		ids = append(ids, id)
	}
	return ids
}

// Len returns the number of distinct labels interned so far.
func (d *LabelDict) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.labels)
}

// Label returns the label an id was issued for; ok is false for an id
// the dictionary never issued.
func (d *LabelDict) Label(id uint32) (label string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.labels) {
		return "", false
	}
	return d.labels[id], true
}

// CodedBE is a 2D BE-string with every symbol replaced by an integer
// code relative to one LabelDict: 0 is the dummy object E, a boundary
// symbol of the label with id i is (i+1)<<1 for begin and (i+1)<<1|1
// for end. Two codes are equal exactly when the two tokens are
// (Token.Equal), so the modified LCS runs on them unchanged.
type CodedBE struct {
	X, Y []uint32
}

// EncodeBE rewrites a BE-string as codes into dst, which must hold
// exactly len(be.X)+len(be.Y) elements, and returns the two axes as views
// of it (X first). labels is the sorted distinct label list of the
// BE-string (a Signature's Labels) and ids the dictionary's id for each,
// in the same order — resolved once per BE-string by Signature.Intern or
// Signature.Lookup, so no token touches the dictionary.
func EncodeBE(dst []uint32, be BEString, labels []string, ids []uint32) CodedBE {
	nx := len(be.X)
	out := CodedBE{X: dst[:nx:nx], Y: dst[nx:len(dst):len(dst)]}
	encodeAxis(out.X, be.X, labels, ids)
	encodeAxis(out.Y, be.Y, labels, ids)
	return out
}

func encodeAxis(dst []uint32, a Axis, labels []string, ids []uint32) {
	for i, t := range a {
		if t.Dummy {
			dst[i] = 0
			continue
		}
		code := (ids[sort.SearchStrings(labels, t.Label)] + 1) << 1
		if t.Kind == End {
			code |= 1
		}
		dst[i] = code
	}
}

// Decode renders codes back into tokens — the inverse of EncodeBE for
// codes issued against d. ok is false when a code names an id d never
// issued (a query symbol unknown to the store).
func (d *LabelDict) Decode(codes []uint32) (axis Axis, ok bool) {
	axis = make(Axis, len(codes))
	for i, c := range codes {
		if c == 0 {
			axis[i] = DummyToken()
			continue
		}
		label, found := d.Label(c>>1 - 1)
		if !found {
			return nil, false
		}
		axis[i] = Token{Label: label, Kind: Begin + Kind(c&1)}
	}
	return axis, true
}
