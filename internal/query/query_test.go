package query

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bestring/internal/core"
)

func mustParse(t *testing.T, s string) Query {
	t.Helper()
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return q
}

func TestParseBasic(t *testing.T) {
	q := mustParse(t, "A left-of B; B above C")
	if len(q.Constraints) != 2 {
		t.Fatalf("constraints = %d, want 2", len(q.Constraints))
	}
	if q.Constraints[0] != (Constraint{A: "A", Op: LeftOf, B: "B"}) {
		t.Errorf("first constraint = %+v", q.Constraints[0])
	}
	if q.Constraints[1] != (Constraint{A: "B", Op: Above, B: "C"}) {
		t.Errorf("second constraint = %+v", q.Constraints[1])
	}
}

func TestParseNewlinesAndCase(t *testing.T) {
	q := mustParse(t, "tree INSIDE park\nhouse Disjoint lake")
	if len(q.Constraints) != 2 {
		t.Fatalf("constraints = %d", len(q.Constraints))
	}
	if q.Constraints[0].Op != Inside || q.Constraints[1].Op != Disjoint {
		t.Errorf("ops = %v, %v", q.Constraints[0].Op, q.Constraints[1].Op)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		";;",
		"A B",
		"A near B",
		"A left-of A",
		"A left-of B extra",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
	// Unknown-op errors list the valid predicates.
	_, err := Parse("A near B")
	if err == nil || !strings.Contains(err.Error(), "left-of") {
		t.Errorf("unknown-op error should list predicates: %v", err)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	q := mustParse(t, "A left-of B; C overlaps D")
	back := mustParse(t, q.String())
	if len(back.Constraints) != 2 || back.Constraints[0] != q.Constraints[0] {
		t.Errorf("round trip: %q -> %q", q.String(), back.String())
	}
}

func TestHoldsPredicates(t *testing.T) {
	left := core.NewRect(0, 0, 3, 3)
	right := core.NewRect(5, 0, 8, 3)
	top := core.NewRect(0, 5, 3, 8)
	big := core.NewRect(-1, -1, 10, 10)
	tests := []struct {
		name string
		op   Op
		a, b core.Rect
		want bool
	}{
		{"left-of true", LeftOf, left, right, true},
		{"left-of false", LeftOf, right, left, false},
		{"left-of touching", LeftOf, core.NewRect(0, 0, 5, 3), right, true},
		{"right-of true", RightOf, right, left, true},
		{"above true", Above, top, left, true},
		{"above false", Above, left, top, false},
		{"below true", Below, left, top, true},
		{"overlaps true", Overlaps, left, core.NewRect(2, 2, 6, 6), true},
		{"overlaps false", Overlaps, left, right, false},
		{"inside true", Inside, left, big, true},
		{"inside false", Inside, big, left, false},
		{"contains true", Contains, big, left, true},
		{"disjoint true", Disjoint, left, right, true},
		{"disjoint false", Disjoint, left, big, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Holds(tt.op, tt.a, tt.b); got != tt.want {
				t.Errorf("Holds(%v, %v, %v) = %v, want %v", tt.op, tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestOppositePredicatesAreInverse(t *testing.T) {
	f := func(ax, ay, bx, by, s1, s2 uint8) bool {
		a := core.NewRect(int(ax), int(ay), int(ax)+int(s1%20), int(ay)+int(s1%13))
		b := core.NewRect(int(bx), int(by), int(bx)+int(s2%20), int(by)+int(s2%13))
		return Holds(LeftOf, a, b) == Holds(RightOf, b, a) &&
			Holds(Above, a, b) == Holds(Below, b, a) &&
			Holds(Inside, a, b) == Holds(Contains, b, a) &&
			Holds(Overlaps, a, b) != Holds(Disjoint, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func figureImage() core.Image {
	// A above-left, B below, C middle (the Figure 1 layout).
	return core.Figure1Image()
}

func TestEvalOnFigure1(t *testing.T) {
	img := figureImage()
	tests := []struct {
		query string
		score float64
		match bool
	}{
		{"A overlaps B", 1, true},
		{"A overlaps C; B overlaps C", 1, true},
		{"A left-of B", 0, false}, // they overlap on x
		{"A overlaps B; A left-of B", 0.5, false},
		{"Z overlaps A", 0, false}, // missing label
	}
	for _, tt := range tests {
		t.Run(tt.query, func(t *testing.T) {
			q := mustParse(t, tt.query)
			score, match := q.Eval(img)
			if score != tt.score || match != tt.match {
				t.Errorf("Eval = (%v, %v), want (%v, %v)", score, match, tt.score, tt.match)
			}
			if q.Match(img) != tt.match {
				t.Error("Match disagrees with Eval")
			}
		})
	}
}

func TestEvalDirectional(t *testing.T) {
	img := core.NewImage(20, 20,
		core.Object{Label: "sun", Box: core.NewRect(14, 14, 18, 18)},
		core.Object{Label: "sea", Box: core.NewRect(0, 0, 20, 6)},
		core.Object{Label: "boat", Box: core.NewRect(4, 6, 8, 9)},
	)
	q := mustParse(t, "sun above sea; boat above sea; sun right-of boat; sun disjoint boat")
	score, match := q.Eval(img)
	if !match || score != 1 {
		t.Errorf("beach scene should fully match: (%v, %v)", score, match)
	}
	flipped := img.ReflectXAxis()
	score, match = q.Eval(flipped)
	if match {
		t.Error("vertically flipped scene should not fully match")
	}
	if score >= 1 || score <= 0 {
		t.Errorf("flipped score = %v, want partial", score)
	}
}

func TestLabels(t *testing.T) {
	q := mustParse(t, "A left-of B; C overlaps B")
	labels := q.Labels()
	if len(labels) != 3 || !labels["A"] || !labels["B"] || !labels["C"] {
		t.Errorf("Labels = %v", labels)
	}
}

func TestEvalEmptyQuery(t *testing.T) {
	var q Query
	score, match := q.Eval(figureImage())
	if score != 0 || match {
		t.Errorf("empty query Eval = (%v, %v)", score, match)
	}
}

// TestEvalRepeatedLabel pins what Eval answers for an image that was
// never validated and repeats a label: the last occurrence is the one a
// constraint sees.
func TestEvalRepeatedLabel(t *testing.T) {
	img := core.Image{XMax: 20, YMax: 20, Objects: []core.Object{
		{Label: "A", Box: core.NewRect(10, 0, 12, 2)},
		{Label: "B", Box: core.NewRect(5, 0, 7, 2)},
		{Label: "A", Box: core.NewRect(0, 0, 2, 2)}, // wins
	}}
	if score, match := mustParse(t, "A left-of B").Eval(img); score != 1 || !match {
		t.Errorf("Eval = (%v, %v), want the last A (left of B) to be the one evaluated", score, match)
	}
	if score, _ := mustParse(t, "A right-of B").Eval(img); score != 0 {
		t.Errorf("Eval = %v, want 0: the first A (right of B) must not be seen", score)
	}
}

var evalSink float64

// BenchmarkEval times one two-clause evaluation — what the engine pays
// per narrowed candidate, and what the load harness's query.eval_ns probe
// times — on the harness's eight-object scene and on a larger one (a
// lookup table of more than eight labels would not fit the stack). Both
// must report 0 allocs/op.
func BenchmarkEval(b *testing.B) {
	for _, n := range []int{8, 12} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			objs := make([]core.Object, n)
			for i := range objs {
				objs[i] = core.Object{Label: fmt.Sprintf("icon%02d", i), Box: core.NewRect(8*i, 4*i, 8*i+6, 4*i+6)}
			}
			img := core.NewImage(100, 100, objs...)
			q, err := Parse("icon01 left-of icon06; icon07 above icon02")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				score, _ := q.Eval(img)
				evalSink += score
			}
		})
	}
}
