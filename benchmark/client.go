package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// requestTimeout bounds one operation; a slower one counts as failed.
const requestTimeout = 5 * time.Second

// hit is one search result as the server returns it.
type hit struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// stageCounts and planInfo mirror the "debug":true response fields.
type stageCounts struct {
	Narrowed  int   `json:"narrowed"`
	Evaluated int   `json:"evaluated"`
	Pruned    int   `json:"pruned"`
	IndexNs   int64 `json:"indexNs"`
	RegionNs  int64 `json:"regionNs"`
	FilterNs  int64 `json:"filterNs"`
	RankNs    int64 `json:"rankNs"`
	TotalNs   int64 `json:"totalNs"`
}

type planInfo struct {
	Name        string `json:"name"`
	CacheHits   int    `json:"cacheHits"`
	CacheMisses int    `json:"cacheMisses"`
}

type searchResponse struct {
	Hits   []hit        `json:"hits"`
	Total  int          `json:"total"`
	Stages *stageCounts `json:"stages"`
	Plan   *planInfo    `json:"plan"`
}

// result is one completed operation with its client-side spans:
// encode [encodeStart, sent), round trip [sent, recv) — request write
// to last response byte — and decode+check [recv, done).
type result struct {
	req *request
	// due is when the operation was scheduled; closed loops send at once,
	// so due == encodeStart there. Latency runs from due to recv.
	due, encodeStart, sent, recv, done time.Time
	reqBytes, respBytes                int
	search                             *searchResponse
	// err is empty for a correct answer; anything else counts in
	// failed and keeps the operation out of the latency samples.
	err string
}

func (r *result) latencyMS() float64 { return float64(r.recv.Sub(r.due)) / 1e6 }

// client is one connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and checks the answer. debug asks searches for
// stage counts and the plan.
func (c *client) do(ctx context.Context, req *request, due time.Time, debug bool) result {
	res := result{req: req, due: due, encodeStart: time.Now()}
	if due.IsZero() {
		res.due = res.encodeStart
	}
	body := req.body(debug)
	res.reqBytes = len(body)
	res.sent = time.Now()
	status, respBody, err := c.roundTrip(ctx, req, body)
	res.recv = time.Now()
	res.respBytes = len(respBody)
	if err != nil {
		res.err = err.Error()
	} else {
		res.search, err = checkResponse(req, status, respBody)
		if err != nil {
			res.err = err.Error()
		}
	}
	res.done = time.Now()
	return res
}

func (c *client) roundTrip(ctx context.Context, req *request, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method(), c.base+req.path(), rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	return resp.StatusCode, respBody, err
}

// checkResponse validates one answer: the status every kind expects,
// and for searches at most k hits ordered by score descending then id
// ascending; an exact-copy query must rank its source first with
// score 1.
func checkResponse(req *request, status int, body []byte) (*searchResponse, error) {
	want := http.StatusOK
	switch req.kind {
	case opInsert:
		want = http.StatusCreated
	case opGetGone:
		want = http.StatusNotFound
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", req.method(), req.path(), status, want, body)
	}
	switch {
	case req.kind == opGet:
		var e struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.ID != req.id {
			return nil, fmt.Errorf("GET %s: body names %q (%v)", req.id, e.ID, err)
		}
		return nil, nil
	case !req.kind.isSearch():
		return nil, nil
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("search: decode: %w", err)
	}
	if len(sr.Hits) > req.search.K {
		return nil, fmt.Errorf("search: %d hits for k=%d", len(sr.Hits), req.search.K)
	}
	if sr.Total < len(sr.Hits) {
		return nil, fmt.Errorf("search: total %d below %d hits", sr.Total, len(sr.Hits))
	}
	for i := 1; i < len(sr.Hits); i++ {
		a, b := sr.Hits[i-1], sr.Hits[i]
		if a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
			return nil, fmt.Errorf("search: hits %d,%d out of order: %v %v", i-1, i, a, b)
		}
	}
	if req.exact && (len(sr.Hits) == 0 || sr.Hits[0].ID != req.id || sr.Hits[0].Score != 1) {
		return nil, fmt.Errorf("search: exact copy of %s not ranked first with score 1: %v", req.id, sr.Hits)
	}
	return &sr, nil
}
