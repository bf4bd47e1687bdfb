package similarity

import (
	"testing"

	"bestring/internal/core"
)

// fuzzLabels is the label alphabet of fuzzer-built images.
const fuzzLabels = "ABCD"

// fuzzImage decodes a small image from fuzzer bytes: each run of five
// bytes is one object — a label from fuzzLabels and the corners x0, x1,
// y0, y1 on an 8×8 canvas, put in order. An object whose label the
// image already holds is dropped, so an image has at most four. ok is
// false when no object remains.
func fuzzImage(b []byte) (img core.Image, ok bool) {
	img = core.NewImage(8, 8)
	seen := map[byte]bool{}
	for ; len(b) >= 5; b = b[5:] {
		label := fuzzLabels[b[0]%byte(len(fuzzLabels))]
		if seen[label] {
			continue
		}
		seen[label] = true
		x0, x1 := min(b[1]%9, b[2]%9), max(b[1]%9, b[2]%9)
		y0, y1 := min(b[3]%9, b[4]%9), max(b[3]%9, b[4]%9)
		img.Objects = append(img.Objects, core.Object{
			Label: string(label),
			Box:   core.NewRect(int(x0), int(y0), int(x1), int(y1)),
		})
	}
	return img, len(img.Objects) > 0
}

// fuzzBytes is fuzzImage's inverse for images over fuzzLabels on a
// canvas of at most 8×8.
func fuzzBytes(img core.Image) []byte {
	var b []byte
	for _, o := range img.Objects {
		label := byte(0)
		for label < byte(len(fuzzLabels)) && string(fuzzLabels[label]) != o.Label {
			label++
		}
		b = append(b, label, byte(o.Box.X0), byte(o.Box.X1), byte(o.Box.Y0), byte(o.Box.Y1))
	}
	return b
}

// FuzzBoundDominatesCoded runs the assertions of
// TestUpperBoundDominatesExact on fuzzer-built pairs of small images:
// for be, invariant and symbols, the signature bound dominates the
// exact score, and the interned bound and the coded score equal their
// token twins bit for bit. It is seeded with pairs from the small-scope
// set.
func FuzzBoundDominatesCoded(f *testing.F) {
	imgs := smallScopeImages()
	for _, pair := range [][2]int{{0, 0}, {3, 40}, {80, 700}, {700, 80}, {1000, 1367}, {1367, 5}} {
		f.Add(fuzzBytes(imgs[pair[0]]), fuzzBytes(imgs[pair[1]]))
	}
	f.Fuzz(func(t *testing.T, qb, db []byte) {
		q, okq := fuzzImage(qb)
		d, okd := fuzzImage(db)
		if !okq || !okd {
			t.Skip()
		}
		p := boundedPair{"fuzz", core.MustConvert(q), core.MustConvert(d)}
		for _, c := range pairChecks(p) {
			if err := c.verify(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}
