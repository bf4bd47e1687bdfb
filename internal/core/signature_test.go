package core

import (
	"reflect"
	"sort"
	"testing"
)

// TestSignatureOfFigure1 pins the signature of the paper's worked
// example against hand-derived values.
func TestSignatureOfFigure1(t *testing.T) {
	be := MustConvert(Figure1Image())
	sig := SignatureOf(be)

	wantLabels := Figure1Image().Labels()
	if !reflect.DeepEqual(sig.Labels, wantLabels) {
		t.Fatalf("labels = %v, want %v", sig.Labels, wantLabels)
	}
	if sig.LenX != len(be.X) || sig.LenY != len(be.Y) {
		t.Fatalf("lengths = (%d, %d), want (%d, %d)", sig.LenX, sig.LenY, len(be.X), len(be.Y))
	}
	if sig.DummiesX != be.X.Dummies() || sig.DummiesY != be.Y.Dummies() {
		t.Fatalf("dummies = (%d, %d), want (%d, %d)",
			sig.DummiesX, sig.DummiesY, be.X.Dummies(), be.Y.Dummies())
	}
	// Structural identities of a well-formed signature: each label is one
	// begin and one end per axis, and dummies can never exceed symbols+1
	// (no two dummies are adjacent).
	if sig.LenX != 2*len(sig.Labels)+sig.DummiesX {
		t.Fatalf("LenX %d != 2*%d labels + %d dummies", sig.LenX, len(sig.Labels), sig.DummiesX)
	}
	if sig.DummiesX > 2*len(sig.Labels)+1 {
		t.Fatalf("DummiesX %d exceeds symbols+1", sig.DummiesX)
	}
}

// TestSignatureSharedLabels exercises the sorted-merge intersection.
func TestSignatureSharedLabels(t *testing.T) {
	sig := func(labels ...string) Signature {
		sort.Strings(labels)
		return Signature{Labels: labels}
	}
	cases := []struct {
		a, b Signature
		want int
	}{
		{sig(), sig(), 0},
		{sig("a", "b", "c"), sig(), 0},
		{sig("a", "b", "c"), sig("a", "b", "c"), 3},
		{sig("a", "c", "e"), sig("b", "c", "d", "e"), 2},
		{sig("x"), sig("y"), 0},
	}
	for _, tc := range cases {
		if got := tc.a.SharedLabels(&tc.b); got != tc.want {
			t.Errorf("shared(%v, %v) = %d, want %d", tc.a.Labels, tc.b.Labels, got, tc.want)
		}
		if got := tc.b.SharedLabels(&tc.a); got != tc.want {
			t.Errorf("shared(%v, %v) = %d, want %d (asymmetric)", tc.b.Labels, tc.a.Labels, got, tc.want)
		}
	}
}

// TestSignatureSwapAxes checks that SwapAxes matches the signature of
// the rotated string, and that axis reversal leaves signatures intact —
// the two facts that let one signature serve all eight transforms.
func TestSignatureSwapAxes(t *testing.T) {
	be := MustConvert(Figure1Image())
	sig := SignatureOf(be)

	rot := SignatureOf(be.Apply(Rot90))
	if !reflect.DeepEqual(sig.SwapAxes(), rot) {
		t.Fatalf("SwapAxes = %+v, want rotate-90 signature %+v", sig.SwapAxes(), rot)
	}
	flipped := SignatureOf(be.Apply(FlipX))
	if !reflect.DeepEqual(sig, flipped) {
		t.Fatalf("reflection changed the signature: %+v vs %+v", sig, flipped)
	}
	if !reflect.DeepEqual(sig.SwapAxes().SwapAxes(), sig) {
		t.Fatalf("SwapAxes is not an involution")
	}
}
