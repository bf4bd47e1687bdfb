// Command bestring is the command-line front end of the 2D BE-string
// library: convert symbolic images to BE-strings, score image pairs,
// search a database, apply rotations/reflections on strings, generate
// synthetic datasets and render images.
//
// Usage:
//
//	bestring convert   -img scene.json
//	bestring score     -query q.json -db d.json [-invariant]
//	bestring search    -scenes scenes.ndjson [-query q.json] [-k 10] [-offset 0]
//	                   [-method be|invariant|type0|type1|type2|symbols]
//	                   [-dsl "A left-of B"] [-region x0,y0,x1,y1] [-region-label L]
//	                   [-min-score 0.4] [-explain]
//	bestring transform -img scene.json -t rot90|rot180|rot270|flip-x|flip-y
//	bestring mkdb      -out scenes.ndjson [-count 50] [-seed 1] [-objects 8] [-vocab 24]
//	bestring store     init|inspect|compact -data-dir DIR [flags]
//	bestring import    -data-dir DIR -file scenes.ndjson [-format ndjson|csv]
//	                   [-chunk N] [-parallelism N] [-no-resume]
//	bestring render    -img scene.json -out scene.png
//	bestring ascii     -img scene.json [-cols 60] [-rows 24]
//
// Image files are JSON in the core.Image format:
//
//	{"xmax":6,"ymax":6,"objects":[{"label":"A","box":{"x0":1,"y0":2,"x1":3,"y1":5}}]}
//
// Scene files (mkdb's output, search's and import's input) are NDJSON,
// one {"id":...,"name":...,"image":{...}} object per line — the body of
// POST /api/v1/import. search holds its database in memory; import
// writes one into a durable store directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"bestring"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bestring:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (convert, score, search, transform, mkdb, store, import, render, ascii)")
	}
	switch args[0] {
	case "convert":
		return cmdConvert(args[1:])
	case "score":
		return cmdScore(args[1:])
	case "search":
		return cmdSearch(args[1:])
	case "transform":
		return cmdTransform(args[1:])
	case "mkdb":
		return cmdMkdb(args[1:])
	case "store":
		return cmdStore(args[1:])
	case "import":
		return cmdImport(args[1:])
	case "render":
		return cmdRender(args[1:])
	case "ascii":
		return cmdASCII(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// loadImage reads a symbolic image from a JSON file ("-" for stdin).
func loadImage(path string) (bestring.Image, error) {
	var img bestring.Image
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return img, fmt.Errorf("read image: %w", err)
	}
	if err := json.Unmarshal(data, &img); err != nil {
		return img, fmt.Errorf("parse image JSON: %w", err)
	}
	if err := img.Validate(); err != nil {
		return img, fmt.Errorf("invalid image: %w", err)
	}
	return img, nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	imgPath := fs.String("img", "-", "image JSON file (- for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadImage(*imgPath)
	if err != nil {
		return err
	}
	be, err := bestring.Convert(img)
	if err != nil {
		return err
	}
	fmt.Printf("x: %s\ny: %s\nstorage units: %d\n", be.X, be.Y, be.StorageUnits())
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	qPath := fs.String("query", "", "query image JSON file")
	dPath := fs.String("db", "", "database image JSON file")
	invariant := fs.Bool("invariant", false, "take the best score over all rotations/reflections")
	explain := fs.Bool("explain", false, "print the matched common subsequence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qPath == "" || *dPath == "" {
		return fmt.Errorf("score: -query and -db are required")
	}
	qImg, err := loadImage(*qPath)
	if err != nil {
		return err
	}
	dImg, err := loadImage(*dPath)
	if err != nil {
		return err
	}
	q, err := bestring.Convert(qImg)
	if err != nil {
		return err
	}
	d, err := bestring.Convert(dImg)
	if err != nil {
		return err
	}
	if *invariant {
		s := bestring.SimilarityInvariant(q, d, nil)
		fmt.Printf("best transform: %s\nLCS x=%d y=%d\nsim(query)=%.4f sim(db)=%.4f sim(F)=%.4f\n",
			s.Transform, s.LX, s.LY, s.Query, s.DB, s.F)
		return nil
	}
	s := bestring.Similarity(q, d)
	fmt.Printf("LCS x=%d y=%d\nsim(query)=%.4f sim(db)=%.4f sim(F)=%.4f\n",
		s.LX, s.LY, s.Query, s.DB, s.F)
	if *explain {
		m := bestring.Explain(q, d)
		fmt.Printf("matched x: %s\nmatched y: %s\n", m.X, m.Y)
	}
	return nil
}

// checkMethod checks a -method value against the engine's scorer
// names ("" is the default), so the CLI accepts exactly the names the
// library and the REST server accept.
func checkMethod(name string) error {
	if name != "" && !slices.Contains(bestring.ScorerNames(), name) {
		return fmt.Errorf("unknown method %q (want %s)",
			name, strings.Join(bestring.ScorerNames(), ", "))
	}
	return nil
}

// parseRegionFlag reads a -region "x0,y0,x1,y1" value.
func parseRegionFlag(s string) (bestring.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return bestring.Rect{}, fmt.Errorf("bad region %q (want x0,y0,x1,y1)", s)
	}
	var coords [4]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return bestring.Rect{}, fmt.Errorf("bad region coordinate %q: %w", p, err)
		}
		coords[i] = v
	}
	return bestring.NewRect(coords[0], coords[1], coords[2], coords[3]), nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	scenesPath := fs.String("scenes", "", "NDJSON scene file to search (see mkdb)")
	qPath := fs.String("query", "", "query image JSON file (optional with -dsl or -region)")
	k := fs.Int("k", 10, "number of results")
	offset := fs.Int("offset", 0, "skip the first N results")
	method := fs.String("method", "be", "scoring method: "+strings.Join(bestring.ScorerNames(), ", "))
	dsl := fs.String("dsl", "", `spatial-predicate filter, e.g. "A left-of B; B above C"`)
	region := fs.String("region", "", `region filter "x0,y0,x1,y1" (icons intersecting it)`)
	regionLabel := fs.String("region-label", "", "restrict -region to icons with this label")
	minScore := fs.Float64("min-score", 0, "drop results scoring below the threshold")
	explain := fs.Bool("explain", false, "print the chosen query plan, per-stage candidate counts and per-hit bound vs exact score")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenesPath == "" {
		return fmt.Errorf("search: -scenes is required")
	}
	if *qPath == "" && *dsl == "" && *region == "" {
		return fmt.Errorf("search: need -query, -dsl or -region")
	}
	db, err := loadScenes(*scenesPath)
	if err != nil {
		return err
	}

	var q *bestring.Query
	var queryBE bestring.BEString
	hasImage := *qPath != ""
	if hasImage {
		img, err := loadImage(*qPath)
		if err != nil {
			return err
		}
		if *explain {
			// Only -explain needs the query's BE-string here (for the
			// per-hit bound column); the pipeline converts internally.
			if queryBE, err = bestring.Convert(img); err != nil {
				return err
			}
		}
		q = bestring.NewQuery(img)
	} else {
		q = bestring.NewMatchQuery()
	}
	// Validate the method eagerly for a friendly error.
	if err := checkMethod(*method); err != nil {
		return err
	}
	opts := []bestring.QueryOption{
		bestring.WithK(*k),
		bestring.WithOffset(*offset),
		bestring.WithScorer(*method),
		bestring.WithMinScore(*minScore),
	}
	if *dsl != "" {
		opts = append(opts, bestring.Where(*dsl))
	}
	if *regionLabel != "" && *region == "" {
		return fmt.Errorf("search: -region-label requires -region")
	}
	if *region != "" {
		r, err := parseRegionFlag(*region)
		if err != nil {
			return err
		}
		opts = append(opts, bestring.InRegionLabel(r, *regionLabel))
	}
	page, err := db.Query(context.Background(), q, opts...)
	if err != nil {
		return err
	}

	// -explain prepares the per-hit bound column: the signature upper
	// bound the refine stage compared against the top-K floor, next to
	// the exact score it shortcuts. A wide gap on a relevance complaint
	// usually means the label overlap (which drives the bound) disagrees
	// with the spatial agreement (which drives the score).
	bound, hasBound := bestring.LookupBound(*method)
	var querySig bestring.Signature
	if *explain && hasImage && hasBound {
		querySig = bestring.SignatureOf(queryBE)
	}
	explainBound := func(h bestring.QueryHit) string {
		if !hasImage || !hasBound {
			return "-"
		}
		e, ok := db.Get(h.ID)
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.4f", bound(querySig, bestring.SignatureOf(e.BE)))
	}

	switch {
	case *explain:
		fmt.Printf("%-4s %-20s %-10s %-10s %s\n", "rank", "id", "score", "bound", "name")
		for i, h := range page.Hits {
			fmt.Printf("%-4d %-20s %-10.4f %-10s %s\n", i+*offset+1, h.ID, h.Score, explainBound(h), h.Name)
		}
	case *dsl != "":
		fmt.Printf("%-4s %-20s %-10s %-8s %-5s %s\n", "rank", "id", "score", "where", "full", "name")
		for i, h := range page.Hits {
			fmt.Printf("%-4d %-20s %-10.4f %-8.4f %-5v %s\n", i+*offset+1, h.ID, h.Score, h.Where, h.Full, h.Name)
		}
	default:
		fmt.Printf("%-4s %-20s %-10s %s\n", "rank", "id", "score", "name")
		for i, h := range page.Hits {
			fmt.Printf("%-4d %-20s %-10.4f %s\n", i+*offset+1, h.ID, h.Score, h.Name)
		}
	}
	if *explain && page.Plan != nil {
		p := page.Plan
		fmt.Printf("plan: %s (%s)", p.Name, strings.Join(p.Order, " -> "))
		if p.EstLabel > 0 {
			fmt.Printf(" est-label=%d", p.EstLabel)
		}
		fmt.Println()
		if p.CacheBypassed {
			// Always, for a cacheable scorer: the CLI is one query per
			// process, and the cache admits a query on its second run.
			fmt.Println("scorer cache: bypassed (first sighting of this query)")
		}
	}
	if *explain && page.Stages != nil {
		s := page.Stages
		fmt.Printf("stages: indexed %d -> region %d -> narrowed %d -> bounded %d -> evaluated %d (pruned %d)\n",
			s.Indexed, s.Region, s.Narrowed, s.Bounded, s.Evaluated, s.Pruned)
		if s.TotalNanos > 0 {
			fmt.Printf("timing: index %v + region %v + filter %v + rank %v = %v total\n",
				time.Duration(s.IndexNanos), time.Duration(s.RegionNanos),
				time.Duration(s.FilterNanos), time.Duration(s.RankNanos),
				time.Duration(s.TotalNanos))
		}
	}
	if page.NextCursor != "" {
		fmt.Printf("(%d of %d results; next offset %d)\n", len(page.Hits), page.Total, *offset+len(page.Hits))
	}
	return nil
}

// transformByName maps CLI names to Transform values.
func transformByName(name string) (bestring.Transform, error) {
	for _, tr := range bestring.AllTransforms {
		if tr.String() == name {
			return tr, nil
		}
	}
	return bestring.Identity, fmt.Errorf("unknown transform %q", name)
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	imgPath := fs.String("img", "-", "image JSON file (- for stdin)")
	tName := fs.String("t", "rot90", "transform: rot90, rot180, rot270, flip-x, flip-y, flip-diag, flip-antidiag")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadImage(*imgPath)
	if err != nil {
		return err
	}
	tr, err := transformByName(*tName)
	if err != nil {
		return err
	}
	be, err := bestring.Convert(img)
	if err != nil {
		return err
	}
	out := be.Apply(tr)
	fmt.Printf("transform: %s\nx: %s\ny: %s\n", tr, out.X, out.Y)
	return nil
}

func cmdMkdb(args []string) error {
	fs := flag.NewFlagSet("mkdb", flag.ContinueOnError)
	out := fs.String("out", "scenes.ndjson", "output NDJSON scene file")
	count := fs.Int("count", 50, "number of scenes")
	seed := fs.Int64("seed", 1, "generator seed")
	objects := fs.Int("objects", 8, "objects per scene")
	vocab := fs.Int("vocab", 24, "icon vocabulary size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gen := bestring.NewSceneGenerator(bestring.SceneConfig{
		Seed: *seed, Objects: *objects, Vocabulary: *vocab,
	})
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w) // one scene per line
	for i := 0; i < *count; i++ {
		sc := bestring.Scene{
			ID:    fmt.Sprintf("scene%04d", i),
			Name:  fmt.Sprintf("synthetic scene %d", i),
			Image: gen.Scene(),
		}
		if err := enc.Encode(sc); err != nil {
			f.Close()
			return err
		}
	}
	if err := errors.Join(w.Flush(), f.Close()); err != nil {
		return err
	}
	fmt.Printf("wrote %d scenes to %s\n", *count, *out)
	return nil
}

// loadScenes imports an NDJSON scene file into a new in-memory database.
func loadScenes(path string) (*bestring.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := bestring.NewDB()
	if _, err := db.Import(context.Background(), bestring.NDJSONScenes(f), bestring.ImportOptions{}); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	imgPath := fs.String("img", "-", "image JSON file (- for stdin)")
	out := fs.String("out", "out.png", "output PNG file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadImage(*imgPath)
	if err != nil {
		return err
	}
	p, err := bestring.NewPalette(img.Labels())
	if err != nil {
		return err
	}
	raster, err := bestring.Render(img, p)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := bestring.EncodePNG(f, raster); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func cmdASCII(args []string) error {
	fs := flag.NewFlagSet("ascii", flag.ContinueOnError)
	imgPath := fs.String("img", "-", "image JSON file (- for stdin)")
	cols := fs.Int("cols", 60, "art width")
	rows := fs.Int("rows", 24, "art height")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadImage(*imgPath)
	if err != nil {
		return err
	}
	fmt.Print(bestring.ASCII(img, *cols, *rows))
	return nil
}
