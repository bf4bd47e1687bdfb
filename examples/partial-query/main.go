// Partial-query retrieval: the paper's headline scenario — "the query
// targets and/or spatial relationships are not certain". A query missing
// most of a scene's icons, with the remembered boxes drawn imprecisely,
// is run against the BE-LCS scorer and against the clique-based type-0/1/2
// matching of the older 2-D string family; the graded LCS similarity keeps
// ranking the right image first while the boolean subgraph criteria
// degrade.
package main

import (
	"context"
	"fmt"
	"log"

	"bestring"
)

func main() {
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{
		Seed: 33, Objects: 9, Vocabulary: 22,
	})
	db := bestring.NewDB()
	var scenes []bestring.Image
	for i := 0; i < 60; i++ {
		scene := gen.Scene()
		scenes = append(scenes, scene)
		if err := db.Insert(fmt.Sprintf("scene%02d", i), "", scene); err != nil {
			log.Fatal(err)
		}
	}

	const targetID = "scene27"
	target := scenes[27]
	fmt.Printf("target %s has icons %v\n", targetID, target.Labels())

	// The user remembers only 3 of 9 icons, and sketches their boxes with
	// up to 6 cells of error in each direction.
	query := gen.JitterQuery(gen.SubsetQuery(target, 3), 6)
	fmt.Printf("query: icons %v, boxes jittered by up to 6\n\n", query.Labels())

	scorers := []struct{ name, scorer string }{
		{"be-lcs (paper)", "be"},
		{"type-0 clique", "type0"},
		{"type-1 clique", "type1"},
		{"type-2 clique", "type2"},
	}
	fmt.Printf("%-16s %-10s %-10s %s\n", "method", "rank", "score", "top result")
	for _, sc := range scorers {
		page, err := db.Query(context.Background(), bestring.NewQuery(query),
			bestring.WithScorer(sc.scorer))
		if err != nil {
			log.Fatal(err)
		}
		results := page.Hits
		rank := 0
		for i, r := range results {
			if r.ID == targetID {
				rank = i + 1
				break
			}
		}
		fmt.Printf("%-16s %-10d %-10.4f %s @ %.4f\n",
			sc.name, rank, scoreOf(results, targetID), results[0].ID, results[0].Score)
	}

	fmt.Println("\nbe-lcs degrades gracefully: every remembered icon and every")
	fmt.Println("still-valid boundary ordering contributes to the score, so the")
	fmt.Println("target stays on top even when no pair satisfies type-2 exactly.")
}

// scoreOf finds the target's score in the ranked results.
func scoreOf(results []bestring.QueryHit, id string) float64 {
	for _, r := range results {
		if r.ID == id {
			return r.Score
		}
	}
	return 0
}
