package lcs

import (
	"sort"
	"strings"
	"testing"

	"bestring/internal/core"
)

// axisFromWords builds arbitrary token sequences from fuzzer words:
// "e"/"" become dummies, "x+"/"x-" boundary symbols, anything else a
// begin boundary.
func axisFromWords(s string) core.Axis {
	var axis core.Axis
	for _, w := range strings.Fields(s) {
		switch {
		case w == "e" || w == "E":
			axis = append(axis, core.DummyToken())
		case strings.HasSuffix(w, "-") && len(w) > 1:
			axis = append(axis, core.EndToken(strings.TrimSuffix(w, "-")))
		case strings.HasSuffix(w, "+") && len(w) > 1:
			axis = append(axis, core.BeginToken(strings.TrimSuffix(w, "+")))
		default:
			axis = append(axis, core.BeginToken(w))
		}
	}
	return axis
}

// codeAxis rewrites a token soup as dictionary codes through the same
// core API the engine uses. With intern set the axis' labels are added to
// the dictionary (the store side); without, labels the dictionary has
// never held become the sentinel code (the query side).
func codeAxis(a core.Axis, dict *core.LabelDict, intern bool) []uint32 {
	var labels []string
	for l := range a.Labels() {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	sig := core.Signature{Labels: labels}
	var ids []uint32
	if intern {
		sig, ids = sig.Intern(dict)
	} else {
		sig, ids = sig.Lookup(dict)
	}
	return core.EncodeBE(make([]uint32, len(a)), core.BEString{X: a}, sig.Labels, ids).X
}

// FuzzLCSInvariants drives Algorithm 2 + 3 with arbitrary token soup and
// asserts the paper's invariants: symmetric length, bounded by the
// classic LCS, reconstruction matches the length, is a common
// subsequence, and never contains consecutive dummies.
func FuzzLCSInvariants(f *testing.F) {
	f.Add("e a+ e a- e", "e a+ e b+ a- e")
	f.Add("e e e", "e e")
	f.Add("a+ b+ c+", "c+ b+ a+")
	f.Add("", "e a+")
	// Axes of 128 tokens and more leave the stack rows of Length and
	// LengthCodes for the heap branch.
	f.Add(strings.Repeat("e a+ b- ", 50), strings.Repeat("a+ e c+ e b- ", 30))
	f.Add(strings.Repeat("e x+ ", 64), strings.Repeat("e x+ ", 64))
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		q := axisFromWords(s1)
		d := axisFromWords(s2)
		if len(q) > 160 || len(d) > 160 {
			return // keep the quadratic table small
		}
		length := Length(q, d)
		if got := Length(d, q); got != length {
			t.Fatalf("length not symmetric: %d vs %d", length, got)
		}
		table := NewTable(q, d)
		if table.Len() != length {
			t.Fatalf("table length %d != rolling length %d", table.Len(), length)
		}
		// The integer kernel computes the same length over the coded pair
		// — with every label interned, and with the query merely looked up
		// in a dictionary that holds d's labels only: a query token the
		// dictionary does not know is coded as the sentinel, which must
		// match nothing, exactly like its label, which d does not contain.
		both := core.NewLabelDict()
		if got := LengthCodes(codeAxis(q, both, true), codeAxis(d, both, true)); got != length {
			t.Fatalf("coded length %d != token length %d", got, length)
		}
		dOnly := core.NewLabelDict()
		cd := codeAxis(d, dOnly, true)
		if got := LengthCodes(codeAxis(q, dOnly, false), cd); got != length {
			t.Fatalf("coded length with looked-up query %d != token length %d", got, length)
		}
		if dOnly.Len() != len(d.Labels()) {
			t.Fatalf("query lookup grew the dictionary to %d labels, want %d", dOnly.Len(), len(d.Labels()))
		}
		if hi := Classic(q, d); length > hi {
			t.Fatalf("modified LCS %d exceeds classic %d", length, hi)
		}
		got := table.Reconstruct()
		if len(got) != length {
			t.Fatalf("reconstruction length %d != %d", len(got), length)
		}
		if !IsSubsequence(got, q) || !IsSubsequence(got, d) {
			t.Fatalf("reconstruction %q is not a common subsequence", got.String())
		}
		if err := ValidateNoConsecutiveDummies(got); err != nil {
			t.Fatalf("reconstruction violates dummy rule: %v", err)
		}
	})
}
