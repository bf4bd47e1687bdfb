// Floorplan: spatial-predicate retrieval over structured scenes — the
// paper introduction's motivating query ("find all images which icon A
// locates at the left side and icon B locates at the right") expressed in
// the query DSL, combined with region lookup and BE-string ranking.
package main

import (
	"context"
	"fmt"
	"log"

	"bestring"
)

// room places a labelled rectangle.
func room(label string, x0, y0, x1, y1 int) bestring.Object {
	return bestring.Object{Label: label, Box: bestring.NewRect(x0, y0, x1, y1)}
}

func main() {
	db := bestring.NewDB()

	// Three hand-built floor plans on a 100x60 canvas (y grows upward).
	plans := map[string]bestring.Image{
		// Classic layout: kitchen west, living east, bedrooms north.
		"plan-classic": bestring.NewImage(100, 60,
			room("kitchen", 0, 0, 30, 25),
			room("living", 35, 0, 75, 30),
			room("bath", 80, 0, 100, 20),
			room("bedroom1", 0, 30, 45, 60),
			room("bedroom2", 50, 35, 100, 60),
		),
		// Open plan: living spans the south, kitchen inside it as a nook.
		"plan-open": bestring.NewImage(100, 60,
			room("living", 0, 0, 100, 30),
			room("kitchen", 5, 5, 30, 25),
			room("bath", 0, 35, 20, 60),
			room("bedroom1", 25, 35, 100, 60),
		),
		// Mirrored classic: kitchen east, living west.
		"plan-mirror": bestring.NewImage(100, 60,
			room("kitchen", 70, 0, 100, 25),
			room("living", 25, 0, 65, 30),
			room("bath", 0, 0, 20, 20),
			room("bedroom1", 55, 30, 100, 60),
			room("bedroom2", 0, 35, 50, 60),
		),
	}
	for id, plan := range plans {
		if err := db.Insert(id, "floor plan", plan); err != nil {
			log.Fatal(err)
		}
	}

	// 1. The paper's motivating query as a spatial predicate.
	q, err := bestring.ParseQuery("kitchen left-of living; bedroom1 above kitchen")
	if err != nil {
		log.Fatal(err)
	}
	page, err := db.Query(context.Background(), bestring.NewMatchQuery(), bestring.WhereQuery(q))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", q)
	for _, r := range page.Hits {
		fmt.Printf("  %-14s score %.2f full=%v\n", r.ID, r.Score, r.Full)
	}

	// 2. A containment predicate distinguishes the open plan.
	q2, err := bestring.ParseQuery("kitchen inside living")
	if err != nil {
		log.Fatal(err)
	}
	page, err = db.Query(context.Background(), bestring.NewMatchQuery(), bestring.WhereQuery(q2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery: %s\n", q2)
	for _, r := range page.Hits {
		fmt.Printf("  %-14s score %.2f full=%v\n", r.ID, r.Score, r.Full)
	}

	// 3. Region lookup: which plans put something in the
	// north-west quadrant? The query answers with plans; the icons and
	// their boxes are on the stored entry.
	nw := bestring.NewRect(0, 30, 30, 60)
	page, err = db.Query(context.Background(), bestring.NewMatchQuery(), bestring.InRegion(nw))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nicons intersecting the north-west quadrant:")
	for _, h := range page.Hits {
		e, _ := db.Get(h.ID)
		for _, o := range e.Image.Objects {
			if o.Box.Intersects(nw) {
				fmt.Printf("  %-14s %-10s %v\n", h.ID, o.Label, o.Box)
			}
		}
	}

	// 4. The mirrored plan is a reflection: the BE-string invariant
	// scorer retrieves it from the classic plan at full score.
	page, err = db.Query(context.Background(), bestring.NewQuery(plans["plan-classic"]),
		bestring.WithK(3), bestring.WithScorer("invariant"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninvariant BE-string search with plan-classic as query:")
	for i, r := range page.Hits {
		fmt.Printf("  %d. %-14s score %.4f\n", i+1, r.ID, r.Score)
	}
}
