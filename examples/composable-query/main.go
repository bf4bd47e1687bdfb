// Composable-query: the unified retrieval pipeline. One request combines
// ranked BE-LCS similarity with a spatial-predicate filter and a region
// window — "rank by similarity among images where a sun is above the sea,
// with a boat somewhere in this harbour area" — then pages through the
// ranking with a cursor and streams it. The ranking scorer is one of
// bestring.ScorerNames; a caller that wants another order re-ranks the
// hits of a page.
package main

import (
	"context"
	"fmt"
	"log"

	"bestring"
)

func main() {
	ctx := context.Background()
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{
		Seed: 7, Objects: 6, Vocabulary: 20,
	})
	db := bestring.NewDB()

	// A collection of random scenes; every third gets a sun-above-sea
	// pair, every fourth a boat in the harbour corner of the canvas.
	for i := 0; i < 60; i++ {
		scene := gen.Scene()
		if i%3 == 0 {
			scene = scene.
				WithObject(bestring.Object{Label: "sun", Box: bestring.NewRect(2, 16, 5, 19)}).
				WithObject(bestring.Object{Label: "sea", Box: bestring.NewRect(0, 0, 19, 5)})
		}
		if i%4 == 0 {
			scene = scene.WithObject(bestring.Object{Label: "boat", Box: bestring.NewRect(16, 4, 18, 6)})
		}
		if err := db.Insert(fmt.Sprintf("photo%03d", i), "collection", scene); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d scenes\n", db.Len())

	// The query image: a beach scene we half remember.
	query := bestring.NewImage(20, 20,
		bestring.Object{Label: "sun", Box: bestring.NewRect(3, 15, 6, 18)},
		bestring.Object{Label: "sea", Box: bestring.NewRect(0, 0, 19, 6)},
		bestring.Object{Label: "boat", Box: bestring.NewRect(15, 3, 17, 5)},
	)
	harbour := bestring.NewRect(14, 2, 19, 8)

	// One composed request: similarity ranking over the images that
	// satisfy the predicate AND have a boat icon in the harbour window.
	page, err := db.Query(ctx, bestring.NewQuery(query),
		bestring.WithK(3),
		bestring.Where("sun above sea"),
		bestring.InRegionLabel(harbour, "boat"),
		bestring.WithMinScore(0.1),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimilarity ranking among sun-above-sea scenes with a harbour boat (%d match):\n", page.Total)
	for i, h := range page.Hits {
		fmt.Printf("  %d. %-10s score %.3f  predicate full=%v\n", i+1, h.ID, h.Score, h.Full)
	}

	// Cursor pagination: walk the same ranking three hits at a time.
	// The cursor stays valid while writers insert concurrently.
	fmt.Println("\npaging the full predicate match list:")
	cursor := ""
	for pageNo := 1; ; pageNo++ {
		p, err := db.Query(ctx, bestring.NewMatchQuery(),
			bestring.Where("sun above sea"),
			bestring.WithK(8),
			bestring.WithCursor(cursor),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  page %d: %d hits\n", pageNo, len(p.Hits))
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}

	// Streaming: iterate the ranking without materialising it.
	streamed := 0
	for h, err := range db.QueryIter(ctx, bestring.NewQuery(query), bestring.WithMinScore(0.3)) {
		if err != nil {
			log.Fatal(err)
		}
		_ = h
		streamed++
	}
	fmt.Printf("\nstreamed %d results scoring >= 0.3\n", streamed)
}
