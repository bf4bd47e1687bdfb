package bestring

import (
	"context"
	"fmt"
	"image"
	"io"

	"bestring/internal/segment"
	"bestring/internal/workload"
)

// Scene generation and raster substrate, re-exported for examples and
// applications that need data to index.
type (
	// SceneConfig parameterises the synthetic scene generator.
	SceneConfig = workload.Config
	// SceneGenerator produces seeded random scenes and query
	// perturbations.
	SceneGenerator = workload.Generator
	// Palette maps icon labels to raster colours and back.
	Palette = segment.Palette
)

// NewSceneGenerator returns a seeded scene generator.
func NewSceneGenerator(cfg SceneConfig) *SceneGenerator {
	return workload.NewGenerator(cfg)
}

// ClassLabel names icon class i ("icon03").
func ClassLabel(i int) string { return workload.ClassLabel(i) }

// SeedScenes fills db with count generated scenes (ids scene0000,
// scene0001, … and name "synthetic") — the seeding path shared by
// `server -count` and `bestring store init`. Batches are chunked so a
// durable DB, whose bulk batch becomes one bounded WAL record, can
// absorb arbitrarily large seeds; each chunk installs all-or-nothing.
func SeedScenes(ctx context.Context, db *DB, cfg SceneConfig, count int) error {
	const chunk = 2048
	gen := NewSceneGenerator(cfg)
	for base := 0; base < count; base += chunk {
		items := make([]BulkItem, min(chunk, count-base))
		for i := range items {
			items[i] = BulkItem{
				ID: fmt.Sprintf("scene%04d", base+i), Name: "synthetic", Image: gen.Scene(),
			}
		}
		if err := db.BulkInsert(ctx, items, 0); err != nil {
			return err
		}
	}
	return nil
}

// NewPalette assigns a distinct colour to every label.
func NewPalette(labels []string) (*Palette, error) { return segment.NewPalette(labels) }

// Render rasterises a symbolic image (one colour per icon class).
func Render(img Image, p *Palette) (*image.RGBA, error) { return segment.Render(img, p) }

// ExtractImage recovers a symbolic image from a raster produced by Render
// — the icon-abstraction step the paper assumes precedes conversion.
func ExtractImage(raster image.Image, p *Palette, xmax, ymax int) (Image, error) {
	return segment.ExtractImage(raster, p, xmax, ymax)
}

// EncodePNG writes a raster as PNG.
func EncodePNG(w io.Writer, raster image.Image) error { return segment.EncodePNG(w, raster) }

// DecodePNG reads a PNG raster.
func DecodePNG(r io.Reader) (image.Image, error) { return segment.DecodePNG(r) }

// ASCII renders a symbolic image as terminal art (top row = top of image).
func ASCII(img Image, cols, rows int) string { return segment.ASCII(img, cols, rows) }
