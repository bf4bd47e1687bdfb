// Transform-invariant retrieval: the paper's section 5 claim that rotated
// and reflected queries need only string reversal — no spatial-operator
// conversion. A database image is queried through every one of the eight
// dihedral transforms; the plain scorer misses, the invariant scorer
// retrieves it at full score.
package main

import (
	"context"
	"fmt"
	"log"

	"bestring"
)

func main() {
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{
		Seed: 11, Objects: 7, Vocabulary: 18,
	})
	db := bestring.NewDB()
	var scenes []bestring.Image
	for i := 0; i < 40; i++ {
		scene := gen.Scene()
		scenes = append(scenes, scene)
		if err := db.Insert(fmt.Sprintf("img%02d", i), "", scene); err != nil {
			log.Fatal(err)
		}
	}
	target := scenes[13]

	// First: the string-level transforms agree with coordinate-space
	// rebuilds on every group element (experiment E6's core property).
	be := bestring.MustConvert(target)
	for _, tr := range bestring.AllTransforms {
		viaString := be.Apply(tr)
		viaImage := bestring.MustConvert(bestring.ApplyToImage(target, tr))
		if !viaString.Equal(viaImage) {
			log.Fatalf("transform %v: string path diverged from rebuild", tr)
		}
	}
	fmt.Println("all 8 string-level transforms equal coordinate-space rebuilds")

	fmt.Printf("\n%-15s %-22s %-22s\n", "query", "plain scorer", "invariant scorer")
	for _, tr := range bestring.AllTransforms[1:] {
		query := bestring.ApplyToImage(target, tr)

		q := bestring.NewQuery(query)
		plain, err := db.Query(context.Background(), q, bestring.WithK(1))
		if err != nil {
			log.Fatal(err)
		}
		inv, err := db.Query(context.Background(), q, bestring.WithK(1), bestring.WithScorer("invariant"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %-6s @ %.4f        %-6s @ %.4f\n",
			tr, plain.Hits[0].ID, plain.Hits[0].Score, inv.Hits[0].ID, inv.Hits[0].Score)
	}
	fmt.Println("\nthe invariant scorer finds img13 at 1.0000 for every transform;")
	fmt.Println("it costs only 8 string reversals per query — no reconversion.")
}
