// Package bestring implements the 2D BE-string spatial-relation model for
// image indexing and similarity retrieval (Ying-Hong Wang, "Image Indexing
// and Similarity Retrieval Based on A New Spatial Relation Model", ICDCS
// 2001).
//
// A symbolic image — a set of labelled icon objects with MBR (minimum
// bounding rectangle) coordinates — is indexed as two 1-D strings of
// begin/end boundary symbols, one per axis. A dummy object 'E' is placed
// between two consecutive boundary symbols whose projections are distinct
// and at the image edges when a gap exists; no spatial operators are
// needed. Similarity between two images is evaluated with a modified
// Longest Common Subsequence over the strings in O(mn) time, which grades
// partial matches (missing icons, perturbed spatial relationships) instead
// of the boolean subgraph matching of the older 2-D string family.
// Rotations by 90/180/270 degrees and axis reflections of a query are
// answered directly on the strings by reversal.
//
// # Quick start
//
//	img := bestring.NewImage(6, 6,
//	    bestring.Object{Label: "A", Box: bestring.NewRect(1, 2, 3, 5)},
//	    bestring.Object{Label: "B", Box: bestring.NewRect(2, 1, 5, 3)},
//	)
//	be, err := bestring.Convert(img)   // the 2D BE-string index
//	score := bestring.Similarity(be, otherBE)
//
// For ranked retrieval over many images use DB — the one engine type: a
// sharded, concurrency-safe store whose top-K query accumulates into
// per-worker bounded heaps (see DESIGN.md section 4 for the engine
// architecture):
//
//	db := bestring.NewDB()
//	_ = db.Insert("scene-1", "beach", img)
//	page, err := db.Query(ctx, bestring.NewQuery(query), bestring.WithK(10))
//
// For a database that survives restarts and crashes, open it with
// OpenStore instead: the same DB, holding a write-ahead log with
// checkpointed snapshots (see DESIGN.md section 5):
//
//	db, err := bestring.OpenStore("./data", bestring.StoreOptions{})
//	defer db.Close()
//	_ = db.Insert("scene-1", "beach", img) // logged+fsynced, then published
//
// The subpackages under internal/ additionally implement every comparator
// of the paper (2-D string, 2D G-, C- and B-string with clique-based
// type-0/1/2 matching) and the experiment harness that regenerates the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package bestring
