package main

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"

	"bestring"
)

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>2D BE-string retrieval demo</title>
<style>
body { font-family: sans-serif; margin: 2em; }
.grid { display: flex; flex-wrap: wrap; gap: 12px; }
.card { border: 1px solid #ccc; padding: 8px; text-align: center; }
.card img { image-rendering: pixelated; width: 120px; height: 120px; }
code { background: #f4f4f4; padding: 1px 4px; }
</style></head><body>
<h1>2D BE-string similarity retrieval</h1>
<p>Pick an image as the query. Each result links back into a new search.
Append <code>&t=rot90</code> (rot180, rot270, flip-x, flip-y) to search with
a transformed query, or <code>&keep=3</code> to query with only the first
3 objects.</p>
<div class="grid">
{{range .IDs}}<div class="card">
<a href="/search?id={{.}}"><img src="/image/{{.}}" alt="{{.}}"></a>
<div><a href="/search?id={{.}}">{{.}}</a></div>
</div>{{end}}
</div></body></html>`))

var searchTmpl = template.Must(template.New("search").Parse(`<!doctype html>
<html><head><title>results for {{.QueryID}}</title>
<style>
body { font-family: sans-serif; margin: 2em; }
.grid { display: flex; flex-wrap: wrap; gap: 12px; }
.card { border: 1px solid #ccc; padding: 8px; text-align: center; }
.card img { image-rendering: pixelated; width: 120px; height: 120px; }
.query { border-color: #06c; }
pre { background: #f4f4f4; padding: 8px; overflow-x: auto; }
</style></head><body>
<p><a href="/">&larr; all images</a></p>
<h1>query: {{.QueryID}}{{if .Transform}} ({{.Transform}}){{end}}{{if .Keep}} (first {{.Keep}} objects){{end}}</h1>
<div class="card query" style="display:inline-block">
<img src="/image/{{.QueryID}}" alt="query"></div>
<h2>query 2D BE-string</h2>
<pre>x: {{.BEX}}
y: {{.BEY}}</pre>
<h2>top {{len .Results}} results</h2>
<div class="grid">
{{range .Results}}<div class="card">
<a href="/search?id={{.ID}}"><img src="/image/{{.ID}}" alt="{{.ID}}"></a>
<div>{{.ID}}<br>score {{printf "%.4f" .Score}}</div>
</div>{{end}}
</div></body></html>`))

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if err := indexTmpl.Execute(w, struct{ IDs []string }{s.db.IDs()}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *server) handleImage(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSuffix(r.PathValue("id"), ".png")
	entry, ok := s.db.Get(id)
	if !ok {
		http.Error(w, "image not found", http.StatusNotFound)
		return
	}
	raster, err := bestring.Render(entry.Image, s.palette)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	if err := bestring.EncodePNG(w, raster); err != nil {
		// Headers already sent; nothing recoverable.
		return
	}
}

// queryFromRequest assembles the query image: a stored image, optionally
// transformed or truncated to its first keep objects.
func (s *server) queryFromRequest(r *http.Request) (bestring.Image, string, string, int, error) {
	id := r.URL.Query().Get("id")
	entry, ok := s.db.Get(id)
	if !ok {
		return bestring.Image{}, "", "", 0, fmt.Errorf("unknown image id %q", id)
	}
	img := entry.Image
	trName := r.URL.Query().Get("t")
	if trName != "" {
		found := false
		for _, tr := range bestring.AllTransforms {
			if tr.String() == trName {
				img = bestring.ApplyToImage(img, tr)
				found = true
				break
			}
		}
		if !found {
			return bestring.Image{}, "", "", 0, fmt.Errorf("unknown transform %q", trName)
		}
	}
	keep := 0
	if k := r.URL.Query().Get("keep"); k != "" {
		v, err := strconv.Atoi(k)
		if err != nil || v < 1 {
			return bestring.Image{}, "", "", 0, fmt.Errorf("bad keep %q", k)
		}
		keep = v
		if keep < len(img.Objects) {
			img = bestring.NewImage(img.XMax, img.YMax, img.Objects[:keep]...)
		}
	}
	return img, id, trName, keep, nil
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	img, id, trName, keep, err := s.queryFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := 8
	if kq := r.URL.Query().Get("k"); kq != "" {
		if v, err := strconv.Atoi(kq); err == nil && v > 0 && v <= 100 {
			k = v
		}
	}
	// Rank by scorer name; a transformed query is
	// the showcase for string-level invariance.
	scorerName := bestring.DefaultScorerName
	if trName != "" {
		scorerName = "invariant"
	}
	page, err := s.db.Query(r.Context(), bestring.NewQuery(img),
		bestring.WithK(k), bestring.WithScorer(scorerName))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	be, err := bestring.Convert(img)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data := struct {
		QueryID   string
		Transform string
		Keep      int
		BEX, BEY  string
		Results   []bestring.QueryHit
	}{id, trName, keep, be.X.String(), be.Y.String(), page.Hits}
	if err := searchTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
