package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bestring/internal/core"
	"bestring/internal/query"
	"bestring/internal/similarity"
)

// reference answers one search the slow, obvious way — filter every
// corpus scene, score every survivor exactly, sort all of them — with
// none of the server's index, planner, bounds or cache. be holds the
// corpus BE-strings, converted once.
func reference(c *corpus, be []core.BEString, sb *searchBody) (hits []hit, total int, err error) {
	var dsl *query.Query
	if sb.DSL != "" {
		q, err := query.Parse(sb.DSL)
		if err != nil {
			return nil, 0, err
		}
		dsl = &q
	}
	var qbe core.BEString
	qlabels := map[string]bool{}
	if sb.Image != nil {
		if qbe, err = core.Convert(*sb.Image); err != nil {
			return nil, 0, err
		}
		for _, o := range sb.Image.Objects {
			qlabels[o.Label] = true
		}
	}
	for i, scene := range c.scenes {
		score := 0.0
		if dsl != nil {
			// With a ranked image every clause must hold; without one the
			// satisfied fraction is the score and any positive one passes.
			frac, full := dsl.Eval(scene)
			if frac <= 0 || sb.Image != nil && !full {
				continue
			}
			score = frac
		}
		if sb.Region != nil && !anyObject(scene, func(o core.Object) bool {
			return (sb.RegionLabel == "" || o.Label == sb.RegionLabel) && o.Box.Intersects(*sb.Region)
		}) {
			continue
		}
		if sb.LabelPrefilter && !anyObject(scene, func(o core.Object) bool { return qlabels[o.Label] }) {
			continue
		}
		if sb.Image != nil {
			score = similarity.Evaluate(qbe, be[i]).F
		}
		hits = append(hits, hit{ID: sceneID(i), Score: score})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	total = len(hits)
	if sb.K > 0 && len(hits) > sb.K {
		hits = hits[:sb.K]
	}
	return hits, total, nil
}

func anyObject(img core.Image, pred func(core.Object) bool) bool {
	for _, o := range img.Objects {
		if pred(o) {
			return true
		}
	}
	return false
}

// checkAgainstReference re-sends n searches of a (so far unused)
// stream and requires the server's ids, scores and total to equal the
// reference's. It returns the operations attempted and the failures.
// Only valid while the server holds exactly the corpus.
func checkAgainstReference(ctx context.Context, c *corpus, do doer, s stream, n int) (attempted int, failures []string) {
	be := make([]core.BEString, len(c.scenes))
	for i, scene := range c.scenes {
		be[i] = core.MustConvert(scene) // generator scenes are valid by construction
	}
	for attempted < n {
		req := s.next()
		if !req.kind.isSearch() {
			continue
		}
		attempted++
		res := do(ctx, req, time.Time{})
		if res.err != "" {
			failures = append(failures, res.err)
			continue
		}
		want, total, err := reference(c, be, req.search)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		if diff := diffHits(res.search, want, total); diff != "" {
			failures = append(failures, fmt.Sprintf("%s %s: %s", req.kind, req.body(false), diff))
		}
	}
	return attempted, failures
}

func diffHits(got *searchResponse, want []hit, total int) string {
	if got.Total != total {
		return fmt.Sprintf("total %d, reference %d", got.Total, total)
	}
	if len(got.Hits) != len(want) {
		return fmt.Sprintf("%d hits, reference %d", len(got.Hits), len(want))
	}
	for i := range want {
		if got.Hits[i] != want[i] {
			return fmt.Sprintf("hit %d is %v, reference %v", i, got.Hits[i], want[i])
		}
	}
	return ""
}

// expectedWrites folds the acknowledged writes of the given results
// into id → must exist (true) / must be gone (false). An operation that
// failed was never acknowledged and promises nothing. Results arrive
// grouped by connection, not in time order, so a delete wins whatever
// the order: ids are never reused, and a delete is only ever generated
// after its insert.
func expectedWrites(into map[string]bool, results []result) {
	for i := range results {
		r := &results[i]
		switch {
		case r.err != "":
		case r.req.kind == opDelete:
			into[r.req.id] = false
		case r.req.kind == opInsert:
			if _, deleted := into[r.req.id]; !deleted {
				into[r.req.id] = true
			}
		}
	}
}

// verifyWrites GETs every id an acknowledged write touched: inserts
// must be readable, deletes must be 404. The GETs are real reads and
// are timed like any other.
func verifyWrites(ctx context.Context, do []doer, expected map[string]bool) window {
	ids := make([]string, 0, len(expected))
	for id := range expected {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	lists := make([]*listStream, len(do))
	streams := make([]stream, len(do))
	for cl := range do {
		lists[cl] = &listStream{}
		streams[cl] = lists[cl]
	}
	for i, id := range ids {
		kind := opGetGone
		if expected[id] {
			kind = opGet
		}
		ls := lists[i%len(lists)]
		ls.reqs = append(ls.reqs, &request{kind: kind, id: id})
	}
	return closedLoop(ctx, do, streams, 0)
}

// searchInserted looks up, through the search path, n of the inserts
// the results acknowledged and expected still holds live, evenly
// spread over them.
func searchInserted(ctx context.Context, do []doer, results []result, expected map[string]bool, n int) window {
	var live []*request
	for i := range results {
		if r := &results[i]; r.err == "" && r.req.kind == opInsert && expected[r.req.id] {
			live = append(live, r.req)
		}
	}
	lists := make([]*listStream, len(do))
	streams := make([]stream, len(do))
	for cl := range do {
		lists[cl] = &listStream{}
		streams[cl] = lists[cl]
	}
	n = min(n, len(live))
	for i := 0; i < n; i++ {
		req := live[i*len(live)/n]
		ls := lists[i%len(lists)]
		ls.reqs = append(ls.reqs, findInserted(req.id, req.scene))
	}
	return closedLoop(ctx, do, streams, 0)
}

// listStream replays a fixed list, then ends.
type listStream struct {
	reqs []*request
	n    int
}

func (s *listStream) next() *request {
	if s.n == len(s.reqs) {
		return nil
	}
	s.n++
	return s.reqs[s.n-1]
}
