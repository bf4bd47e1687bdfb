package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bestring/internal/core"
	"bestring/internal/ingest"
	"bestring/internal/lcs"
	"bestring/internal/query"
	"bestring/internal/rtree"
	"bestring/internal/similarity"
	"bestring/internal/wal"
)

// timePerCall runs fn(0..n-1) on one goroutine in batches and returns
// the median per-call time in nanoseconds. Batching keeps the clock
// reads out of calls that take tens of nanoseconds.
func timePerCall(n, batch int, fn func(i int)) float64 {
	var per []float64
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		start := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(start))/float64(hi-lo))
	}
	return median(per)
}

// Sinks keep the compiler from discarding the timed calls.
var (
	sinkInt   int
	sinkFloat float64
)

// layerInputs are the inputs the workloads of this seed send, whatever
// workload is running: ranked_scan's queries, filtered_mix's clauses
// and regions, the corpus scenes (write_churn's inserts come from the
// same generator) and the import body.
type layerInputs struct {
	c       *corpus
	ndjson  []byte
	queries []core.Image
	dsls    []string
	regions []core.Rect
}

func newLayerInputs(c *corpus, ndjson []byte) *layerInputs {
	in := &layerInputs{c: c, ndjson: ndjson}
	ranked := newTraffic("ranked_scan", c).stream(phaseMeasure, 0)
	for len(in.queries) < 32 {
		in.queries = append(in.queries, *ranked.next().search.Image)
	}
	mix := newTraffic("filtered_mix", c).stream(phaseMeasure, 0)
	for len(in.dsls) < 1000 || len(in.regions) < 1000 {
		req := mix.next()
		if !req.kind.isSearch() {
			continue
		}
		if req.search.DSL != "" {
			in.dsls = append(in.dsls, req.search.DSL)
		}
		if req.search.Region != nil {
			in.regions = append(in.regions, *req.search.Region)
		}
	}
	return in
}

// timeLayers times each layer's public function in-process, ≥1000 calls
// each, and returns metric name → value. scratch is a directory for the
// WAL probe.
func timeLayers(in *layerInputs, scratch string) (map[string]float64, error) {
	m := map[string]float64{}
	scenes := in.c.scenes
	n := min(len(scenes), 2000)

	be := make([]core.BEString, n)
	m["core.convert_us"] = timePerCall(n, 20, func(i int) { be[i] = core.MustConvert(scenes[i]) }) / 1e3
	sigs := make([]core.Signature, n)
	m["core.signature_us"] = timePerCall(n, 20, func(i int) { sigs[i] = core.SignatureOf(be[i]) }) / 1e3

	qbe := make([]core.BEString, len(in.queries))
	qsig := make([]core.Signature, len(in.queries))
	for i, q := range in.queries {
		qbe[i] = core.MustConvert(q)
		qsig[i] = core.SignatureOf(qbe[i])
	}
	nq := len(qbe)
	m["similarity.bound_ns"] = timePerCall(nq*n, 1000, func(i int) {
		sinkFloat += similarity.UpperBound(qsig[i%nq], sigs[i/nq])
	})
	m["similarity.evaluate_us"] = timePerCall(4000, 50, func(i int) {
		sinkFloat += similarity.Evaluate(qbe[i%nq], be[i%n]).F
	}) / 1e3
	m["lcs.length_us"] = timePerCall(4000, 50, func(i int) {
		sinkInt += lcs.Length(qbe[i%nq].X, be[i%n].X)
	}) / 1e3

	parsed := make([]query.Query, len(in.dsls))
	var parseErr error
	m["query.parse_us"] = timePerCall(len(in.dsls), 20, func(i int) {
		var err error
		if parsed[i], err = query.Parse(in.dsls[i]); err != nil && parseErr == nil {
			parseErr = err
		}
	}) / 1e3
	if parseErr != nil {
		return nil, fmt.Errorf("dsl parse: %w", parseErr)
	}
	m["query.eval_ns"] = timePerCall(20000, 1000, func(i int) {
		f, _ := parsed[i%len(parsed)].Eval(scenes[i%n])
		sinkFloat += f
	})

	// The tree the server keeps: one entry per icon of the corpus.
	type box struct {
		id string
		r  core.Rect
	}
	var boxes []box
	for i, s := range scenes {
		for _, o := range s.Objects {
			boxes = append(boxes, box{sceneID(i) + "/" + o.Label, o.Box})
		}
	}
	tree := rtree.New(rtree.DefaultMaxEntries)
	m["rtree.insert_us"] = timePerCall(len(boxes), 1000, func(i int) { tree.Insert(boxes[i].id, boxes[i].r) }) / 1e3
	m["rtree.search_us"] = timePerCall(len(in.regions), 10, func(i int) {
		sinkInt += len(tree.SearchIntersect(in.regions[i]))
	}) / 1e3

	rd := ingest.NDJSON(bytes.NewReader(in.ndjson))
	var decodeErr error
	m["ingest.ndjson_decode_us"] = timePerCall(n, 50, func(int) {
		if _, err := rd.Next(); err != nil && decodeErr == nil {
			decodeErr = err
		}
	}) / 1e3
	if decodeErr != nil {
		return nil, fmt.Errorf("ndjson decode: %w", decodeErr)
	}

	us, err := timeWALAppend(scenes, filepath.Join(scratch, "walprobe"))
	if err != nil {
		return nil, err
	}
	m["wal.inproc_append_fsync_us"] = us
	return m, nil
}

// timeWALAppend is the device floor under a durable write: one
// insert-sized record appended and fsynced per call, nothing else.
func timeWALAppend(scenes []core.Image, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, 1, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	var appendErr error
	us := timePerCall(1000, 1, func(i int) {
		img := scenes[i%len(scenes)]
		if _, _, err := log.Append(wal.Record{Op: wal.OpInsert, ID: sceneID(i), Image: &img}); err != nil && appendErr == nil {
			appendErr = err
		}
	}) / 1e3
	if appendErr != nil {
		return 0, fmt.Errorf("wal append: %w", appendErr)
	}
	return us, nil
}

// timeWALReplay replays a (killed) store's log with a no-op apply and
// returns logical records per second: an import chunk or a commit group
// counts once per mutation it carries, so the rate means the same on a
// log of 5000-scene chunks and on a log of single inserts.
func timeWALReplay(dir string) (float64, error) {
	start := time.Now()
	mutations := 0
	_, err := wal.Replay(dir, 0, true, func(rec wal.Record) error {
		mutations += rec.Mutations()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("wal replay: %w", err)
	}
	return ratio(float64(mutations), time.Since(start).Seconds()), nil
}
