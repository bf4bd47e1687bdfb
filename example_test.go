package bestring_test

import (
	"context"
	"errors"
	"fmt"
	"os"

	"bestring"
)

// ExampleConvert converts the paper's Figure 1 image — objects A, B, C in
// a 6x6 canvas — into its 2D BE-string: one axis of begin ("+") and end
// ("-") boundary symbols per dimension, with the dummy object E filling
// the gaps between distinct projections and at the image edges.
func ExampleConvert() {
	img := bestring.Figure1Image()
	be, err := bestring.Convert(img)
	if err != nil {
		panic(err)
	}
	fmt.Println(be.X)
	fmt.Println(be.Y)
	// Output:
	// E A+ E B+ E A- C+ E C- E B- E
	// E B+ E A+ E B- C+ E C- E A- E
}

// ExampleSimilarity grades two images with the paper's modified LCS over
// their BE-strings. The score is 1.0 for identical images and degrades
// gracefully for partial matches — here a query missing one of Figure 1's
// three objects still scores high against the full image.
func ExampleSimilarity() {
	full := bestring.Figure1Image()
	partial, _ := full.WithoutObject("C")

	fullBE := bestring.MustConvert(full)
	partialBE := bestring.MustConvert(partial)

	fmt.Printf("identical: %.3f\n", bestring.Similarity(fullBE, fullBE).Key())
	fmt.Printf("partial:   %.3f\n", bestring.Similarity(partialBE, fullBE).Key())
	// Output:
	// identical: 1.000
	// partial:   0.857
}

// ExampleDB_Query_ranked ranks a small database against a query image.
// The exact image scores 1.0 and ranks first; the two-object variant
// follows with a graded partial-match score.
func ExampleDB_Query_ranked() {
	img := bestring.Figure1Image()
	partial, _ := img.WithoutObject("C")

	db := bestring.NewDB()
	_ = db.Insert("fig1", "figure 1", img)
	_ = db.Insert("fig1-partial", "A and B only", partial)
	_ = db.Insert("fig1-rot", "rotated", bestring.ApplyToImage(img, bestring.Rot90))

	page, err := db.Query(context.Background(), bestring.NewQuery(img), bestring.WithK(2))
	if err != nil {
		panic(err)
	}
	for _, h := range page.Hits {
		fmt.Printf("%s %.3f\n", h.ID, h.Score)
	}
	// Output:
	// fig1 1.000
	// fig1-partial 0.857
}

// ExampleDB_Query composes ranked similarity with a spatial-predicate
// filter in one request: rank by BE-LCS among images where C overlaps B.
// The partial image (no C) is filtered out before scoring; the rotated
// variant survives the filter and ranks by its graded similarity.
func ExampleDB_Query() {
	img := bestring.Figure1Image()
	partial, _ := img.WithoutObject("C")

	db := bestring.NewDB()
	_ = db.Insert("fig1", "figure 1", img)
	_ = db.Insert("fig1-partial", "A and B only", partial)
	_ = db.Insert("fig1-rot", "rotated", bestring.ApplyToImage(img, bestring.Rot90))

	page, err := db.Query(context.Background(), bestring.NewQuery(img),
		bestring.WithK(5),
		bestring.Where("C overlaps B"))
	if err != nil {
		panic(err)
	}
	for _, h := range page.Hits {
		fmt.Printf("%s %.3f full=%v\n", h.ID, h.Score, h.Full)
	}
	// Output:
	// fig1 1.000 full=true
	// fig1-rot 0.667 full=true
}

// ExampleOpenStore round-trips a durable DB: OpenStore returns the same
// DB type NewDB does, holding a write-ahead log, so mutations are framed
// into the log before they are acknowledged and reopening the directory
// — after a clean close or a crash — recovers exactly the acknowledged
// state. A volatile DB has no log to checkpoint.
func ExampleOpenStore() {
	dir, err := os.MkdirTemp("", "bestring-store-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	db, err := bestring.OpenStore(dir, bestring.StoreOptions{
		Fsync: bestring.FsyncAlways, // one fsync per acknowledged write
	})
	if err != nil {
		panic(err)
	}
	if err := db.Insert("fig1", "the worked example", bestring.Figure1Image()); err != nil {
		panic(err)
	}
	if err := db.Close(); err != nil {
		panic(err)
	}

	reopened, err := bestring.OpenStore(dir, bestring.StoreOptions{})
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	entry, ok := reopened.Get("fig1")
	fmt.Println(reopened.Len(), ok, entry.Name, reopened.Durable())
	fmt.Println(errors.Is(bestring.NewDB().Checkpoint(), bestring.ErrNotDurable))
	// Output:
	// 1 true the worked example true
	// true
}

// ExampleDB_Snapshot pins an immutable version of the database: every
// read on the snapshot is lock-free and repeatable bit-for-bit, however
// many writers run concurrently — later mutations are simply another
// version, published under a higher epoch.
func ExampleDB_Snapshot() {
	db := bestring.NewDB()
	if err := db.Insert("fig1", "the worked example", bestring.Figure1Image()); err != nil {
		panic(err)
	}

	snap := db.Snapshot() // one atomic load; data is shared, not copied

	// A writer keeps going; the pinned view does not move.
	if err := db.Delete("fig1"); err != nil {
		panic(err)
	}

	page, err := snap.Query(context.Background(),
		bestring.NewQuery(bestring.Figure1Image()), bestring.WithK(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(snap.Len(), db.Len(), page.Hits[0].ID, db.Epoch() > snap.Epoch())
	// Output:
	// 1 0 fig1 true
}
