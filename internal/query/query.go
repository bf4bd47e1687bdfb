// Package query implements a small spatial-predicate language for the
// retrieval scenario the paper's introduction motivates: "find all images
// which icon A locates at the left side and icon B locates at the right".
// A query is a semicolon-separated list of constraints
//
//	A left-of B; B above C; tree inside park; house disjoint lake
//
// evaluated against symbolic images. Each constraint holds or not; an
// image's score is the satisfied fraction, so — in the spirit of the 2D
// BE-string's graded similarity — images matching only part of a query
// still rank.
package query

import (
	"fmt"
	"strings"

	"bestring/internal/core"
)

// Op is a spatial predicate between two labelled objects.
type Op uint8

// Supported predicates. Directions follow the model's axes: y grows
// upward, so "above" means the subject's bottom boundary is at or above
// the object's top boundary.
const (
	LeftOf   Op = iota + 1 // a.X1 <= b.X0
	RightOf                // a.X0 >= b.X1
	Above                  // a.Y0 >= b.Y1
	Below                  // a.Y1 <= b.Y0
	Overlaps               // MBRs share a point
	Inside                 // b contains a
	Contains               // a contains b
	Disjoint               // MBRs share no point
)

// opNames maps surface syntax to predicates.
var opNames = map[string]Op{
	"left-of":  LeftOf,
	"right-of": RightOf,
	"above":    Above,
	"below":    Below,
	"overlaps": Overlaps,
	"inside":   Inside,
	"contains": Contains,
	"disjoint": Disjoint,
}

// String returns the surface syntax of the predicate.
func (o Op) String() string {
	for name, op := range opNames {
		if op == o {
			return name
		}
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Constraint is one "A <op> B" clause.
type Constraint struct {
	A  string
	Op Op
	B  string
}

// String renders the clause in surface syntax.
func (c Constraint) String() string {
	return c.A + " " + c.Op.String() + " " + c.B
}

// Query is a parsed conjunction of constraints.
type Query struct {
	Constraints []Constraint
}

// String renders the whole query.
func (q Query) String() string {
	parts := make([]string, len(q.Constraints))
	for i, c := range q.Constraints {
		parts[i] = c.String()
	}
	return strings.Join(parts, "; ")
}

// Labels returns the set of object labels the query mentions.
func (q Query) Labels() map[string]bool {
	out := make(map[string]bool, 2*len(q.Constraints))
	for _, c := range q.Constraints {
		out[c.A] = true
		out[c.B] = true
	}
	return out
}

// Parse reads the surface syntax: clauses separated by ';' or newlines,
// each "label op label". Labels may not contain whitespace or ';'.
func Parse(s string) (Query, error) {
	var q Query
	clauses := strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == '\n' })
	for _, clause := range clauses {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		fields := strings.Fields(clause)
		if len(fields) != 3 {
			return Query{}, fmt.Errorf("parse query clause %q: want \"label op label\"", clause)
		}
		op, ok := opNames[strings.ToLower(fields[1])]
		if !ok {
			return Query{}, fmt.Errorf("parse query clause %q: unknown predicate %q (want %s)",
				clause, fields[1], knownOps())
		}
		if fields[0] == fields[2] {
			return Query{}, fmt.Errorf("parse query clause %q: subject and object are the same label", clause)
		}
		q.Constraints = append(q.Constraints, Constraint{A: fields[0], Op: op, B: fields[2]})
	}
	if len(q.Constraints) == 0 {
		return Query{}, fmt.Errorf("parse query: no constraints in %q", s)
	}
	return q, nil
}

// knownOps lists the predicate names for error messages.
func knownOps() string {
	names := make([]string, 0, len(opNames))
	for name := range opNames {
		names = append(names, name)
	}
	// Stable order for deterministic errors.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}

// Holds evaluates one predicate on two MBRs.
func Holds(op Op, a, b core.Rect) bool {
	switch op {
	case LeftOf:
		return a.X1 <= b.X0
	case RightOf:
		return a.X0 >= b.X1
	case Above:
		return a.Y0 >= b.Y1
	case Below:
		return a.Y1 <= b.Y0
	case Overlaps:
		return a.Intersects(b)
	case Inside:
		return b.Contains(a)
	case Contains:
		return a.Contains(b)
	case Disjoint:
		return !a.Intersects(b)
	default:
		return false
	}
}

// Eval scores an image against the query: the fraction of constraints
// satisfied. A constraint whose labels are absent from the image is
// unsatisfied. The boolean reports full satisfaction. It allocates
// nothing: the engine runs it on every narrowed candidate.
func (q Query) Eval(img core.Image) (float64, bool) {
	if len(q.Constraints) == 0 {
		return 0, false
	}
	satisfied := 0
	for _, c := range q.Constraints {
		a, okA := box(img, c.A)
		b, okB := box(img, c.B)
		if okA && okB && Holds(c.Op, a, b) {
			satisfied++
		}
	}
	return float64(satisfied) / float64(len(q.Constraints)), satisfied == len(q.Constraints)
}

// box finds the MBR of the labelled object. Images hold a handful of
// objects, so a scan beats building a lookup table per image; it runs
// from the end so that on an unvalidated image repeating a label the
// last occurrence wins, as it would filling a map in order.
func box(img core.Image, label string) (core.Rect, bool) {
	for i := len(img.Objects) - 1; i >= 0; i-- {
		if img.Objects[i].Label == label {
			return img.Objects[i].Box, true
		}
	}
	return core.Rect{}, false
}

// Match reports whether the image satisfies every constraint.
func (q Query) Match(img core.Image) bool {
	_, all := q.Eval(img)
	return all
}
