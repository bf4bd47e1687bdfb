// Package lcs implements the similarity-retrieval algorithms of the 2D
// BE-string paper (Wang, ICDCS 2001, section 4): the modified Longest
// Common Subsequence over BE-string axes (Algorithm 2, 2D-Be-LCS-Length)
// and the LCS reconstruction procedure (Algorithm 3, Print-2D-Be-LCS),
// together with the classic LCS used as a cross-check.
//
// The modification over the textbook LCS is twofold. First, the LCS is
// never allowed to pick two dummy objects in a row: a single dummy already
// asserts "these two boundaries project to distinct coordinates", so a
// second consecutive dummy would add length without adding spatial
// information. The dynamic-programming table stores signed lengths: a
// negative cell value means the optimal common subsequence ending at that
// cell ends with a dummy object. Second, the paper drops the usual
// direction matrix; ties prefer the up, then left neighbour, and the path
// is re-inferred from the length table alone when reconstructing.
package lcs

import (
	"fmt"

	"bestring/internal/core"
)

// Table is the LCS length-inference table W of Algorithm 2. Cell (i, j)
// holds the signed length of the modified LCS of q[0:i] and d[0:j]; the
// magnitude is the length, and a negative sign records that this optimum
// ends with a dummy object. Row 0 and column 0 are zero.
type Table struct {
	q, d core.Axis
	w    []int // (len(q)+1) x (len(d)+1), row-major
	cols int
}

// at returns the signed cell value W[i][j].
func (t *Table) at(i, j int) int { return t.w[i*t.cols+j] }

func (t *Table) set(i, j, v int) { t.w[i*t.cols+j] = v }

// Len returns the modified LCS length (the magnitude of the last cell).
func (t *Table) Len() int { return abs(t.at(len(t.q), len(t.d))) }

// Query returns the query axis the table was built from.
func (t *Table) Query() core.Axis { return t.q }

// Database returns the database axis the table was built from.
func (t *Table) Database() core.Axis { return t.d }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// NewTable runs Algorithm 2 (2D-Be-LCS-Length) on two BE-string axes,
// producing the full inference table. Time and space are O(mn) where m, n
// are the axis lengths (at most 4·objects+1 each, so O of the object
// counts' product — the paper's headline matching complexity).
func NewTable(q, d core.Axis) *Table {
	m, n := len(q), len(d)
	t := &Table{q: q, d: d, w: make([]int, (m+1)*(n+1)), cols: n + 1}
	for i := 1; i <= m; i++ {
		qi := q[i-1]
		for j := 1; j <= n; j++ {
			// Prefer the up, then left neighbour with maximum magnitude
			// (Algorithm 2 lines 16-19); the sign travels with the value.
			up, left := t.at(i-1, j), t.at(i, j-1)
			best := left
			if abs(up) >= abs(left) {
				best = up
			}
			// Diagonal extension (lines 21-26): symbols must match, and a
			// dummy may only extend a path that does not already end with a
			// dummy (w[i-1][j-1] >= 0).
			if qi.Equal(d[j-1]) && (!qi.Dummy || t.at(i-1, j-1) >= 0) {
				if ext := abs(t.at(i-1, j-1)) + 1; ext > abs(best) {
					best = ext
					if qi.Dummy {
						best = -best
					}
				}
			}
			t.set(i, j, best)
		}
	}
	return t
}

// stackRow is the rolling-row length Length keeps on its own stack frame:
// enough for an axis of 31 objects (4·objects+1 tokens, plus column 0).
const stackRow = 128

// Length returns the modified LCS length of two axes using O(min(m,n))
// additional space (two rolling rows). It computes the same value as
// NewTable(q, d).Len() without materialising the table; use it for
// search-time scoring where the matched string itself is not needed.
// Axes of up to stackRow-1 tokens cost no heap allocation.
func Length(q, d core.Axis) int {
	if len(d) < len(q) {
		q, d = d, q // LCS is symmetric; roll the shorter axis
	}
	n := len(d)
	var scratch [2 * stackRow]int
	var prev, cur []int
	if n < stackRow {
		prev, cur = scratch[:n+1], scratch[stackRow:stackRow+n+1]
	} else {
		prev, cur = make([]int, n+1), make([]int, n+1)
	}
	for i := 1; i <= len(q); i++ {
		qi := q[i-1]
		cur[0] = 0
		for j := 1; j <= n; j++ {
			up, left := prev[j], cur[j-1]
			best := left
			if abs(up) >= abs(left) {
				best = up
			}
			if qi.Equal(d[j-1]) && (!qi.Dummy || prev[j-1] >= 0) {
				if ext := abs(prev[j-1]) + 1; ext > abs(best) {
					best = ext
					if qi.Dummy {
						best = -best
					}
				}
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return abs(prev[n])
}

// LengthCodes is Length over dictionary-coded axes (core.CodedBE.X or
// .Y): the identical Algorithm-2 recurrence with token equality replaced
// by integer equality and "is the dummy" by "is code 0". Codes are equal
// exactly when the tokens they encode are, so for axes coded against one
// dictionary LengthCodes(encode(q), encode(d)) == Length(q, d) — pinned by
// FuzzLengthCodes. A code the dictionary never issued (a query symbol the
// store has not seen) equals no database code and so never matches. This
// is the kernel the engine's ranked scan runs per surviving candidate;
// Length stays the reference.
func LengthCodes(q, d []uint32) int {
	if len(d) < len(q) {
		q, d = d, q
	}
	n := len(d)
	var scratch [2 * stackRow]int32
	var prev, cur []int32
	if n < stackRow {
		prev, cur = scratch[:n+1], scratch[stackRow:stackRow+n+1]
	} else {
		prev, cur = make([]int32, n+1), make([]int32, n+1)
	}
	for _, qi := range q {
		// diag and left carry W[i-1][j-1] and W[i][j-1] across the row
		// in registers; both are column 0, hence zero, at its start.
		var diag, left int32
		row := prev[1 : n+1]
		out := cur[1 : n+1]
		for j, dj := range d {
			up := row[j]
			best := left
			if abs32(up) >= abs32(left) {
				best = up
			}
			if qi == dj && (qi != 0 || diag >= 0) {
				if ext := abs32(diag) + 1; ext > abs32(best) {
					best = ext
					if qi == 0 {
						best = -best
					}
				}
			}
			out[j] = best
			diag, left = up, best
		}
		prev, cur = cur, prev
	}
	return int(abs32(prev[n]))
}

// abs32 is abs for the int32 rows of LengthCodes, written without a
// branch: the sign of a cell is data-dependent noise to the predictor,
// and the kernel takes five magnitudes per cell.
func abs32(v int32) int32 {
	m := v >> 31
	return (v ^ m) - m
}

// Reconstruct replays Algorithm 3 (Print-2D-Be-LCS) on the table,
// returning one modified LCS as a token sequence in forward order. The
// paper states it recursively; this is the equivalent iteration (the moves
// are identical: prefer up, then left, else take the diagonal and emit).
func (t *Table) Reconstruct() core.Axis {
	var rev core.Axis
	i, j := len(t.q), len(t.d)
	for i > 0 && j > 0 {
		switch {
		case abs(t.at(i, j)) == abs(t.at(i-1, j)):
			i--
		case abs(t.at(i, j)) == abs(t.at(i, j-1)):
			j--
		default:
			rev = append(rev, t.q[i-1])
			i--
			j--
		}
	}
	// Reverse into forward order.
	out := make(core.Axis, len(rev))
	for k, tok := range rev {
		out[len(rev)-1-k] = tok
	}
	return out
}

// IsSubsequence reports whether sub is a subsequence of seq under token
// equality — the correctness predicate for Reconstruct.
func IsSubsequence(sub, seq core.Axis) bool {
	i := 0
	for _, tok := range seq {
		if i < len(sub) && sub[i].Equal(tok) {
			i++
		}
	}
	return i == len(sub)
}

// Classic computes the textbook (CLRS) LCS length of two axes, with no
// dummy restriction. It upper-bounds the modified LCS and is used for
// cross-validation and for the E7 cost comparison.
func Classic(q, d core.Axis) int {
	m, n := len(q), len(d)
	if m == 0 || n == 0 {
		return 0
	}
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			switch {
			case q[i-1].Equal(d[j-1]):
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// StripDummies returns the axis with all dummy objects removed.
func StripDummies(a core.Axis) core.Axis {
	out := make(core.Axis, 0, len(a))
	for _, t := range a {
		if !t.Dummy {
			out = append(out, t)
		}
	}
	return out
}

// ValidateNoConsecutiveDummies returns an error if the token sequence
// contains two adjacent dummy objects — the invariant Algorithm 2 enforces
// on every LCS it produces.
func ValidateNoConsecutiveDummies(a core.Axis) error {
	for i := 1; i < len(a); i++ {
		if a[i].Dummy && a[i-1].Dummy {
			return fmt.Errorf("consecutive dummy objects at positions %d-%d", i-1, i)
		}
	}
	return nil
}
