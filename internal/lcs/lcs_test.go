package lcs

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bestring/internal/core"
	"bestring/internal/workload"
)

func mustAxis(t *testing.T, s string) core.Axis {
	t.Helper()
	a, err := core.ParseAxis(s)
	if err != nil {
		t.Fatalf("ParseAxis(%q): %v", s, err)
	}
	return a
}

func TestLengthIdenticalAxes(t *testing.T) {
	be := core.MustConvert(core.Figure1Image())
	if got := Length(be.X, be.X); got != len(be.X) {
		t.Errorf("LCS of axis with itself = %d, want %d", got, len(be.X))
	}
}

func TestLengthEmpty(t *testing.T) {
	axis := mustAxis(t, "E A+ E A- E")
	if got := Length(nil, axis); got != 0 {
		t.Errorf("LCS(nil, axis) = %d, want 0", got)
	}
	if got := Length(axis, nil); got != 0 {
		t.Errorf("LCS(axis, nil) = %d, want 0", got)
	}
	if got := Length(nil, nil); got != 0 {
		t.Errorf("LCS(nil, nil) = %d, want 0", got)
	}
}

func TestLengthKnownCases(t *testing.T) {
	tests := []struct {
		name string
		q, d string
		want int
	}{
		{
			name: "disjoint symbols share only dummies",
			q:    "E A+ E A- E",
			d:    "E B+ E B- E",
			// Dummies can match but never two in a row: E . E alternation
			// is impossible without a symbol between, so only one E aligns.
			want: 1,
		},
		{
			name: "common subpattern",
			q:    "E A+ E B+ E A- B- E",
			d:    "E A+ E B+ E B- A- E",
			// E A+ E B+ E then one of {A-, B-} and trailing E:
			want: 7,
		},
		{
			name: "query subsumed by database",
			q:    "A+ E A-",
			d:    "E A+ E B+ E A- B- E",
			want: 3,
		},
		{
			name: "kind mismatch blocks match",
			q:    "A+",
			d:    "A-",
			want: 0,
		},
		{
			name: "no consecutive dummy picks",
			q:    "E E E", // not produced by Convert, but legal input to LCS
			d:    "E E E",
			want: 1,
		},
		{
			name: "dummy between symbols counts",
			q:    "A+ E A-",
			d:    "A+ E A-",
			want: 3,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q, d := mustAxis(t, tt.q), mustAxis(t, tt.d)
			if got := Length(q, d); got != tt.want {
				t.Errorf("Length = %d, want %d", got, tt.want)
			}
			if got := NewTable(q, d).Len(); got != tt.want {
				t.Errorf("NewTable().Len() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTableMatchesRollingLength(t *testing.T) {
	f := func(s1, s2 uint8) bool {
		q := core.MustConvert(randomImage(int(s1))).X
		d := core.MustConvert(randomImage(int(s2))).X
		return NewTable(q, d).Len() == Length(q, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModifiedBoundedByClassic(t *testing.T) {
	// The dummy restriction can only shorten the LCS, and any common
	// subsequence of the dummy-stripped axes is a valid modified common
	// subsequence, so:
	//   Classic(strip(q), strip(d)) <= Modified(q, d) <= Classic(q, d).
	f := func(s1, s2 uint8) bool {
		q := core.MustConvert(randomImage(int(s1))).X
		d := core.MustConvert(randomImage(int(s2))).X
		mod := Length(q, d)
		hi := Classic(q, d)
		lo := Classic(StripDummies(q), StripDummies(d))
		return lo <= mod && mod <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLengthSymmetric(t *testing.T) {
	f := func(s1, s2 uint8) bool {
		q := core.MustConvert(randomImage(int(s1))).Y
		d := core.MustConvert(randomImage(int(s2))).Y
		return Length(q, d) == Length(d, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReconstructProperties(t *testing.T) {
	// The reconstructed string must: have the table's length, be a common
	// subsequence of both inputs, and contain no consecutive dummies.
	f := func(s1, s2 uint8) bool {
		q := core.MustConvert(randomImage(int(s1))).X
		d := core.MustConvert(randomImage(int(s2))).X
		table := NewTable(q, d)
		got := table.Reconstruct()
		if len(got) != table.Len() {
			return false
		}
		if !IsSubsequence(got, q) || !IsSubsequence(got, d) {
			return false
		}
		return ValidateNoConsecutiveDummies(got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReconstructIdentity(t *testing.T) {
	be := core.MustConvert(core.Figure1Image())
	got := NewTable(be.X, be.X).Reconstruct()
	if !got.Equal(be.X) {
		t.Errorf("self-LCS = %q, want %q", got.String(), be.X.String())
	}
}

func TestReconstructFigure1PartialQuery(t *testing.T) {
	// Query with only objects A and C (B dropped): the LCS against the full
	// Figure 1 image must contain every A/C boundary of the query.
	full := core.MustConvert(core.Figure1Image())
	partial, _ := core.Figure1Image().WithoutObject("B")
	q := core.MustConvert(partial)
	table := NewTable(q.X, full.X)
	got := table.Reconstruct()
	counts := map[string]int{}
	for _, tok := range got {
		if !tok.Dummy {
			counts[tok.Label]++
		}
	}
	if counts["A"] != 2 || counts["C"] != 2 {
		t.Errorf("partial-query LCS %q: want both boundaries of A and C", got.String())
	}
}

func TestIsSubsequence(t *testing.T) {
	seq := mustAxis(t, "E A+ E B+ E A- B- E")
	tests := []struct {
		sub  string
		want bool
	}{
		{"E A+ A-", true},
		{"A+ B+ B-", true},
		{"", true},
		{"B+ A+", false},
		{"A- A+", false},
		{"E E E E E", false},
	}
	for _, tt := range tests {
		sub := mustAxis(t, tt.sub)
		if got := IsSubsequence(sub, seq); got != tt.want {
			t.Errorf("IsSubsequence(%q) = %v, want %v", tt.sub, got, tt.want)
		}
	}
}

func TestClassicKnown(t *testing.T) {
	q := mustAxis(t, "E E E")
	d := mustAxis(t, "E E")
	if got := Classic(q, d); got != 2 {
		t.Errorf("Classic EEE/EE = %d, want 2 (no dummy restriction)", got)
	}
}

func TestStripDummies(t *testing.T) {
	a := mustAxis(t, "E A+ E A- E")
	got := StripDummies(a)
	want := mustAxis(t, "A+ A-")
	if !got.Equal(want) {
		t.Errorf("StripDummies = %q, want %q", got.String(), want.String())
	}
	if len(StripDummies(nil)) != 0 {
		t.Error("StripDummies(nil) should be empty")
	}
}

func TestValidateNoConsecutiveDummies(t *testing.T) {
	if err := ValidateNoConsecutiveDummies(mustAxis(t, "E A+ E")); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if err := ValidateNoConsecutiveDummies(mustAxis(t, "A+ E E A-")); err == nil {
		t.Error("expected error for consecutive dummies")
	}
}

// TestNoConsecutiveDummiesEverProduced exercises Algorithm 2's central
// guarantee over many random pairs, including adversarial dummy-heavy axes.
func TestNoConsecutiveDummiesEverProduced(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		q := randomDummyHeavyAxis(rng)
		d := randomDummyHeavyAxis(rng)
		table := NewTable(q, d)
		got := table.Reconstruct()
		if err := ValidateNoConsecutiveDummies(got); err != nil {
			t.Fatalf("trial %d: q=%q d=%q lcs=%q: %v",
				trial, q.String(), d.String(), got.String(), err)
		}
		if len(got) != table.Len() {
			t.Fatalf("trial %d: reconstruct length %d != table length %d",
				trial, len(got), table.Len())
		}
		if !IsSubsequence(got, q) || !IsSubsequence(got, d) {
			t.Fatalf("trial %d: %q is not a common subsequence", trial, got.String())
		}
	}
}

// randomDummyHeavyAxis builds arbitrary token soup (legal LCS input even if
// not a well-formed BE-string) to stress the dummy rule.
func randomDummyHeavyAxis(rng *rand.Rand) core.Axis {
	n := rng.Intn(14)
	axis := make(core.Axis, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			axis = append(axis, core.DummyToken())
		case 1:
			axis = append(axis, core.BeginToken(fmt.Sprintf("O%d", rng.Intn(3))))
		default:
			axis = append(axis, core.EndToken(fmt.Sprintf("O%d", rng.Intn(3))))
		}
	}
	return axis
}

func randomImage(seed int) core.Image {
	rng := rand.New(rand.NewSource(int64(seed)))
	const xmax, ymax = 32, 24
	n := 1 + rng.Intn(8)
	objs := make([]core.Object, 0, n)
	for i := 0; i < n; i++ {
		x0 := rng.Intn(xmax)
		y0 := rng.Intn(ymax)
		objs = append(objs, core.Object{
			Label: fmt.Sprintf("O%d", i),
			Box:   core.NewRect(x0, y0, x0+rng.Intn(xmax-x0+1), y0+rng.Intn(ymax-y0+1)),
		})
	}
	return core.NewImage(xmax, ymax, objs...)
}

// BenchmarkLength measures the refine kernel on one realistic axis pair
// (8-object scenes, vocabulary 64): the Token/string reference against
// the integer kernel over the same pair coded against one dictionary.
func BenchmarkLength(b *testing.B) {
	g := workload.NewGenerator(workload.Config{Seed: 1, Vocabulary: 64, Objects: 8})
	const pairs = 256
	qs, ds := make([]core.Axis, pairs), make([]core.Axis, pairs)
	cqs, cds := make([][]uint32, pairs), make([][]uint32, pairs)
	dict := core.NewLabelDict()
	code := func(be core.BEString) []uint32 {
		sig, ids := core.SignatureOf(be).Intern(dict)
		return core.EncodeBE(make([]uint32, len(be.X)+len(be.Y)), be, sig.Labels, ids).X
	}
	for i := range qs {
		q, d := core.MustConvert(g.Scene()), core.MustConvert(g.Scene())
		qs[i], ds[i] = q.X, d.X
		cqs[i], cds[i] = code(q), code(d)
	}
	b.Run("tokens", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += Length(qs[i%pairs], ds[i%pairs])
		}
	})
	b.Run("codes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += LengthCodes(cqs[i%pairs], cds[i%pairs])
		}
	})
}

var sink int
