package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"bestring/internal/core"
	"bestring/internal/ingest"
	"bestring/internal/query"
	"bestring/internal/workload"
)

// Corpus shape: the paper's symbolic images as the repo's generator
// draws them. Vocabulary 64 (not the server's -count default of 24)
// keeps one label's posting list at 1/8 of the corpus, so label and
// region narrowing have something to narrow.
const (
	canvas      = 100
	sceneObjs   = 8
	vocabulary  = 64
	topK        = 10
	queryKeep   = 5  // objects kept in a partial query
	queryJitter = 3  // ± coordinate jitter of an uncertain query
	regionSide  = 12 // side of a region-filter box
	hotSetSize  = 64
	zipfS       = 1.1
	exactEvery  = 8 // every n-th ranked_scan query copies its source scene
)

// corpus is the seeded scene set loaded into every server.
type corpus struct {
	seed   int64
	scenes []core.Image
}

func sceneID(i int) string { return fmt.Sprintf("s%07d", i) }

func newCorpus(seed int64, n int) *corpus {
	gen := workload.NewGenerator(workload.Config{
		Seed: seed, Width: canvas, Height: canvas, Objects: sceneObjs, Vocabulary: vocabulary})
	return &corpus{seed: seed, scenes: gen.Dataset(n)}
}

// ndjson renders the corpus as the POST /api/v1/import body.
func (c *corpus) ndjson() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, img := range c.scenes {
		// Encoding a plain struct into a buffer cannot fail.
		_ = enc.Encode(ingest.Scene{ID: sceneID(i), Image: img})
	}
	return buf.Bytes()
}

// opKind names one kind of request; the names appear in budgets and
// traces.
type opKind int

const (
	opRanked       opKind = iota // ranked, no filter
	opRankedDSL                  // ranked + one-clause dsl
	opRankedRegion               // ranked + region with regionLabel
	opMatchDSL                   // match-only two-clause dsl
	opPrefilter                  // ranked 2-object query + labelPrefilter
	opGet                        // GET one image
	opGetGone                    // GET of a deleted id, expecting 404
	opInsert
	opDelete
)

var kindNames = [...]string{"ranked", "ranked+dsl", "ranked+region", "match-dsl",
	"prefilter", "get", "get-gone", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }
func (k opKind) isSearch() bool { return k <= opPrefilter }
func (k opKind) isWrite() bool  { return k == opInsert || k == opDelete }

// searchBody is the subset of cmd/server's POST /api/v1/search payload
// the workloads use.
type searchBody struct {
	Image          *core.Image `json:"image,omitempty"`
	DSL            string      `json:"dsl,omitempty"`
	Region         *core.Rect  `json:"region,omitempty"`
	RegionLabel    string      `json:"regionLabel,omitempty"`
	K              int         `json:"k,omitempty"`
	LabelPrefilter bool        `json:"labelPrefilter,omitempty"`
	Debug          bool        `json:"debug,omitempty"`
}

// request is one generated operation. Exactly one of search / scene is
// set for POSTs; id addresses GET, DELETE and (with scene) an insert.
type request struct {
	kind   opKind
	search *searchBody
	scene  *core.Image
	id     string
	// exact marks a query that copies stored scene id: the answer must
	// list id first with score 1.
	exact bool
	// hot is the request's popularity rank in the hot set (1 = most
	// popular), 0 for a fresh request; traces carry it.
	hot int
}

func (r *request) method() string {
	switch r.kind {
	case opGet, opGetGone:
		return "GET"
	case opDelete:
		return "DELETE"
	}
	return "POST"
}

func (r *request) path() string {
	switch {
	case r.kind.isSearch():
		return "/api/v1/search"
	case r.kind == opInsert:
		return "/api/v1/images"
	}
	return "/api/v1/images/" + r.id
}

// body encodes the request payload (nil for GET and DELETE). debug asks
// the server for stage counts and the plan on a search.
func (r *request) body(debug bool) []byte {
	var v any
	switch {
	case r.kind.isSearch():
		sb := *r.search
		sb.Debug = debug
		v = sb
	case r.kind == opInsert:
		v = ingest.Scene{ID: r.id, Image: *r.scene}
	default:
		return nil
	}
	b, _ := json.Marshal(v) // plain structs: cannot fail
	return b
}

// stream yields a workload's requests in order.
type stream interface{ next() *request }

// Phases of one run. Each phase draws its query source scenes from its
// own residue class of corpus indices (see sources), so the warm-up can
// never pre-fill the scorer cache with a query the measured window
// sends, and the traced window never replays the untraced one.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTrace
	phaseCheck // the sample compared against the naive reference
	numPhases
)

const maxClients = 2

// sourceClasses partitions corpus indices: one class per (phase,
// client), plus one for the hot set shared by every phase.
const sourceClasses = numPhases*maxClients + 1

// streamSeed derives an independent seed per (seed, purpose).
func streamSeed(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed, parts)
	return int64(h.Sum64() >> 1)
}

// sources returns the corpus indices of one class in a seeded order;
// walking it never repeats a scene until the class is exhausted.
func sources(c *corpus, class int, seed int64) []int {
	var idx []int
	for i := class; i < len(c.scenes); i += sourceClasses {
		idx = append(idx, i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// queryGen draws queries from corpus scenes of one source class.
type queryGen struct {
	c     *corpus
	rng   *rand.Rand
	gen   *workload.Generator
	order []int
	n     int
}

func newQueryGen(c *corpus, class int, seed int64) *queryGen {
	return &queryGen{c: c, rng: rand.New(rand.NewSource(seed)),
		gen:   workload.NewGenerator(workload.Config{Seed: seed + 1, Vocabulary: vocabulary}),
		order: sources(c, class, seed+2)}
}

// source returns the next source scene and its corpus index.
func (g *queryGen) source() (int, core.Image) {
	i := g.order[g.n%len(g.order)]
	g.n++
	return i, g.c.scenes[i]
}

// partial is the paper's partial, spatially uncertain query: keep of
// the scene's objects, each MBR jittered.
func (g *queryGen) partial(scene core.Image, keep int) *core.Image {
	q := g.gen.JitterQuery(g.gen.SubsetQuery(scene, keep), queryJitter)
	return &q
}

// holdingOp returns a DSL operator that holds between the two boxes, so
// the source scene itself always passes the clause.
func (g *queryGen) holdingOp(a, b core.Rect) query.Op {
	ops := []query.Op{query.LeftOf, query.RightOf, query.Above, query.Below, query.Overlaps, query.Disjoint}
	start := g.rng.Intn(4)
	for i := range ops {
		if op := ops[(start+i)%len(ops)]; query.Holds(op, a, b) {
			return op
		}
	}
	return query.Disjoint // unreachable: overlaps or disjoint always holds
}

func (g *queryGen) clause(a, b core.Object) string {
	return fmt.Sprintf("%s %s %s", a.Label, g.holdingOp(a.Box, b.Box), b.Label)
}

// ranked is the ranked_scan query; every exactEvery-th one is the
// source scene itself.
func (g *queryGen) ranked() *request {
	i, scene := g.source()
	if g.n%exactEvery == 0 {
		return &request{kind: opRanked, search: &searchBody{Image: &scene, K: topK}, id: sceneID(i), exact: true}
	}
	return &request{kind: opRanked, search: &searchBody{Image: g.partial(scene, queryKeep), K: topK}}
}

// search draws one filtered search of the given kind.
func (g *queryGen) search(kind opKind) *request {
	_, scene := g.source()
	objs := g.rng.Perm(len(scene.Objects))
	a, b, c := scene.Objects[objs[0]], scene.Objects[objs[1]], scene.Objects[objs[2]]
	sb := &searchBody{K: topK}
	switch kind {
	case opRankedDSL:
		sb.Image = g.partial(scene, queryKeep)
		sb.DSL = g.clause(a, b)
	case opRankedRegion:
		sb.Image = g.partial(scene, queryKeep)
		r := regionAround(a.Box)
		sb.Region, sb.RegionLabel = &r, a.Label
	case opMatchDSL:
		sb.DSL = g.clause(a, b) + "; " + g.clause(b, c)
	case opPrefilter:
		sb.Image = g.partial(scene, 2)
		sb.LabelPrefilter = true
	}
	return &request{kind: kind, search: sb}
}

// regionAround is the region-filter box centred on b, moved inside the
// canvas.
func regionAround(b core.Rect) core.Rect {
	ctr := b.Center()
	x0 := min(max(ctr.X-regionSide/2, 0), canvas-regionSide)
	y0 := min(max(ctr.Y-regionSide/2, 0), canvas-regionSide)
	return core.NewRect(x0, y0, x0+regionSide, y0+regionSide)
}

// findInserted is the search that looks an inserted scene up through
// the label index, the R-tree and the ranking the write path must have
// updated: the scene itself as the query, narrowed to a region around
// its first object. The answer must list id first with score 1.
func findInserted(id string, scene *core.Image) *request {
	first := scene.Objects[0]
	r := regionAround(first.Box)
	return &request{kind: opRankedRegion, id: id, exact: true,
		search: &searchBody{Image: scene, Region: &r, RegionLabel: first.Label, K: topK}}
}

// searchKind draws a search kind by the filtered_mix shares (30 / 25 /
// 15 / 10 of the 80% that are searches).
func searchKind(rng *rand.Rand) opKind {
	switch u := rng.Float64() * 80; {
	case u < 30:
		return opRankedDSL
	case u < 55:
		return opRankedRegion
	case u < 70:
		return opMatchDSL
	}
	return opPrefilter
}

// hotKinds assigns a search kind to each popularity rank of the hot
// set, sixteen ranks at a time, in the filtered_mix shares (6 : 5 : 3 :
// 2). The most popular entry alone draws a fifth of the hot traffic, so
// if its kind were drawn by the seed, the seed would pick the workload.
var hotKinds = [16]opKind{
	opRankedDSL, opRankedRegion, opMatchDSL, opPrefilter, opRankedDSL, opRankedRegion, opRankedDSL, opRankedRegion,
	opMatchDSL, opRankedDSL, opRankedRegion, opRankedDSL, opPrefilter, opRankedRegion, opMatchDSL, opRankedDSL,
}

// hotSet is the workload's repeating working set: hotSetSize searches
// every phase shares, so the warm-up fills the scorer cache with them
// as a long-running server would have. It depends on the seed only.
func hotSet(c *corpus) []*request {
	g := newQueryGen(c, sourceClasses-1, streamSeed(c.seed, "hot"))
	set := make([]*request, hotSetSize)
	for i := range set {
		set[i] = g.search(hotKinds[i%len(hotKinds)])
		set[i].hot = i + 1
	}
	return set
}

// rankedStream is the ranked_scan traffic of one client.
type rankedStream struct{ g *queryGen }

func (s rankedStream) next() *request { return s.g.ranked() }

// mixStream is filtered_mix (getShare 0.20) or the read side of
// mixed_open (getShare 0): half of the searches repeat from the hot set
// with Zipf popularity, the rest are fresh.
type mixStream struct {
	g        *queryGen
	hot      []*request
	zipf     *rand.Zipf
	getShare float64
}

func newMixStream(c *corpus, hot []*request, class int, seed int64, getShare float64) *mixStream {
	g := newQueryGen(c, class, seed)
	return &mixStream{g: g, hot: hot, getShare: getShare,
		zipf: rand.NewZipf(g.rng, zipfS, 1, uint64(len(hot)-1))}
}

func (s *mixStream) next() *request {
	rng := s.g.rng
	if rng.Float64() < s.getShare {
		return &request{kind: opGet, id: sceneID(rng.Intn(len(s.g.c.scenes)))}
	}
	if rng.Float64() < 0.5 {
		return s.hot[s.zipf.Uint64()]
	}
	return s.g.search(searchKind(rng))
}

// writer is one client's insert/delete stream: 70% inserts of fresh
// scenes under new ids, 30% deletes of an id it inserted at least lag
// requests earlier (so an open-loop delete can never overtake its own
// insert on the other connection). One writer lives for the whole run,
// so warm-up, window and epilogue ids never collide.
type writer struct {
	prefix string
	rng    *rand.Rand
	gen    *workload.Generator
	lag    int
	pos    int
	live   []liveID // insertion order
}

type liveID struct {
	id string
	at int
}

func newWriter(seed int64, kind string, client, lag int) *writer {
	return &writer{prefix: fmt.Sprintf("%s%d-", kind, client), lag: lag, rng: rand.New(rand.NewSource(seed)),
		gen: workload.NewGenerator(workload.Config{
			Seed: seed + 1, Width: canvas, Height: canvas, Objects: sceneObjs, Vocabulary: vocabulary})}
}

func (w *writer) insert() *request {
	w.pos++
	scene := w.gen.Scene()
	id := fmt.Sprintf("%s%07d", w.prefix, w.pos)
	w.live = append(w.live, liveID{id, w.pos})
	return &request{kind: opInsert, id: id, scene: &scene}
}

// take returns the next n operations as a fixed list.
func (w *writer) take(n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = w.next()
	}
	return out
}

func (w *writer) next() *request {
	if w.rng.Float64() < 0.3 {
		// live is ordered by insertion position: the deletable prefix is
		// everything inserted at least lag requests ago.
		old, _ := slices.BinarySearchFunc(w.live, w.pos-w.lag+1, func(l liveID, at int) int { return l.at - at })
		if old > 0 {
			w.pos++
			i := w.rng.Intn(old)
			id := w.live[i].id
			w.live = slices.Delete(w.live, i, i+1)
			return &request{kind: opDelete, id: id}
		}
	}
	return w.insert()
}

// openStream is mixed_open's single arrival stream: 85% searches, 15%
// writes.
type openStream struct {
	reads  *mixStream
	writes *writer
}

func (s *openStream) next() *request {
	if s.reads.g.rng.Float64() < 0.15 {
		return s.writes.next()
	}
	return s.reads.next()
}

// traffic is everything one run of a workload sends: per-client streams
// per phase, plus the writers whose state spans phases.
type traffic struct {
	workload string
	c        *corpus
	hot      []*request
	writers  []*writer // write_churn: one per client; mixed_open: one
}

func newTraffic(workload string, c *corpus) *traffic {
	t := &traffic{workload: workload, c: c}
	switch workload {
	case "filtered_mix":
		t.hot = hotSet(c)
	case "mixed_open":
		t.hot = hotSet(c)
		// 64 arrivals at the open-loop rate is over a second: far longer
		// than an insert, far shorter than the request timeout.
		t.writers = []*writer{newWriter(streamSeed(c.seed, workload, "writer"), "w", 0, 64)}
	case "write_churn":
		for cl := 0; cl < maxClients; cl++ {
			t.writers = append(t.writers, newWriter(streamSeed(c.seed, workload, "writer", cl), "w", cl, 0))
		}
	}
	return t
}

// stream returns client cl's request stream for a phase. mixed_open has
// one stream (client 0) feeding both connections.
func (t *traffic) stream(phase, cl int) stream {
	class := phase*maxClients + cl
	seed := streamSeed(t.c.seed, t.workload, phase, cl)
	switch t.workload {
	case "ranked_scan":
		return rankedStream{newQueryGen(t.c, class, seed)}
	case "filtered_mix":
		return newMixStream(t.c, t.hot, class, seed, 0.20)
	case "write_churn":
		return t.writers[cl]
	case "mixed_open":
		return &openStream{reads: newMixStream(t.c, t.hot, class, seed, 0), writes: t.writers[0]}
	}
	panic("unknown workload " + t.workload)
}
