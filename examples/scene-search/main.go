// Scene-search: the content-based retrieval workflow the paper's
// introduction motivates — a database of scenes ("find all images where
// icon A is left of icon B"), ranked search with partial queries, and the
// raster pipeline (render to PNG, recover labelled MBRs, index).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bestring"
)

func main() {
	// Build a synthetic photo collection: 100 scenes over a 30-icon
	// vocabulary. Deterministic by seed.
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{
		Seed: 2025, Objects: 8, Vocabulary: 30,
	})
	db := bestring.NewDB()
	var scenes []bestring.Image
	for i := 0; i < 100; i++ {
		scene := gen.Scene()
		scenes = append(scenes, scene)
		if err := db.Insert(fmt.Sprintf("photo%03d", i), "collection", scene); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d scenes\n", db.Len())

	// Query: photo 42, but we only remember 4 of its icons.
	query := gen.SubsetQuery(scenes[42], 4)
	fmt.Printf("query: %d remembered icons of photo042: %v\n",
		len(query.Objects), query.Labels())

	page, err := db.Query(context.Background(), bestring.NewQuery(query), bestring.WithK(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop 5:")
	for i, r := range page.Hits {
		marker := ""
		if r.ID == "photo042" {
			marker = "  <- the photo we remembered"
		}
		fmt.Printf("  %d. %-10s score %.4f%s\n", i+1, r.ID, r.Score, marker)
	}

	// The raster round trip: render the query to PNG, re-extract labelled
	// MBRs (the icon-abstraction step the paper assumes), and verify the
	// index is identical.
	labels := make([]string, 30)
	for i := range labels {
		labels[i] = bestring.ClassLabel(i)
	}
	palette, err := bestring.NewPalette(labels)
	if err != nil {
		log.Fatal(err)
	}
	raster, err := bestring.Render(query, palette)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "bestring-scene-search")
	if err != nil {
		log.Fatal(err)
	}
	pngPath := filepath.Join(dir, "query.png")
	f, err := os.Create(pngPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := bestring.EncodePNG(f, raster); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	back, err := bestring.ExtractImage(raster, palette, query.XMax, query.YMax)
	if err != nil {
		log.Fatal(err)
	}
	same := bestring.MustConvert(back).Equal(bestring.MustConvert(query))
	fmt.Printf("\nwrote %s; extract(render(query)) indexes identically: %v\n", pngPath, same)

	// Write the collection for the CLI as NDJSON scenes, one per line:
	// bestring search -scenes scenes.ndjson -query q.json.
	scenesPath := filepath.Join(dir, "scenes.ndjson")
	out, err := os.Create(scenesPath)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(out)
	for i, scene := range scenes {
		if err := enc.Encode(bestring.Scene{ID: fmt.Sprintf("photo%03d", i), Name: "collection", Image: scene}); err != nil {
			log.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d scenes to %s\n", len(scenes), scenesPath)
}
