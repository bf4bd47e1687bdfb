package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bestring"
)

// ndjsonBody renders n scenes in the import endpoint's wire format.
func ndjsonBody(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b,
			`{"id":"imp%04d","name":"s%d","image":{"xmax":12,"ymax":12,"objects":[{"label":"icon%02d","box":{"x0":%d,"y0":1,"x1":%d,"y1":4}}]}}`+"\n",
			i, i, i%6, i%8, i%8+2)
	}
	return b.String()
}

func postStream(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestImportEndpoint(t *testing.T) {
	s, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{Fsync: bestring.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := newMux(s)

	rec := postStream(t, h, "/api/v1/import?chunk=16", ndjsonBody(50))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var out struct {
		Import bestring.ImportStats `json:"import"`
		LSN    uint64               `json:"lsn"`
	}
	decode(t, rec, &out)
	if out.Import.Images != 50 || out.Import.Chunks != 4 || out.LSN == 0 {
		t.Fatalf("response = %+v", out)
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}

	// Re-POSTing the identical stream resumes: every chunk is already
	// durable, nothing duplicates.
	rec = postStream(t, h, "/api/v1/import?chunk=16", ndjsonBody(50))
	if rec.Code != http.StatusOK {
		t.Fatalf("re-post status = %d (body %s)", rec.Code, rec.Body)
	}
	decode(t, rec, &out)
	if out.Import.Images != 0 || out.Import.ResumedChunks != 4 {
		t.Fatalf("re-post = %+v, want everything resumed", out.Import)
	}
	if s.Len() != 50 {
		t.Fatalf("Len after re-post = %d", s.Len())
	}

	// The health body carries the cumulative import tally.
	hr := do(t, h, http.MethodGet, "/healthz", nil)
	var health struct {
		Import *bestring.ImportStats `json:"import"`
	}
	decode(t, hr, &health)
	if health.Import == nil || health.Import.Images != 50 || health.Import.ResumedChunks != 4 {
		t.Fatalf("healthz import = %+v", health.Import)
	}

	// CSV format rides the same endpoint.
	rec = postStream(t, h, "/api/v1/import?format=csv",
		"id,name,xmax,ymax,objects\ncsvA,,9,9,icon00:1:1:3:3\ncsvB,,9,9,icon01:2:2:4:4|icon02:0:0:1:1\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("csv status = %d (body %s)", rec.Code, rec.Body)
	}
	if s.Len() != 52 {
		t.Fatalf("Len after csv = %d", s.Len())
	}

	// Bad knobs and formats are rejected before the stream is read.
	if rec := postStream(t, h, "/api/v1/import?format=tsv", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad format status = %d", rec.Code)
	}
	if rec := postStream(t, h, "/api/v1/import?chunk=-1", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad chunk status = %d", rec.Code)
	}

	// A mid-stream collision reports the partial progress it kept.
	rec = postStream(t, h, "/api/v1/import?chunk=4&no_resume=1", ndjsonBody(8))
	if rec.Code != http.StatusConflict {
		t.Fatalf("collision status = %d (body %s)", rec.Code, rec.Body)
	}
}

// peakBody is a request body that, once drained, samples
// runtime.NumGoroutine for a while before it reports io.EOF: by then
// the importer's workers are all started and parked on the empty
// pipeline.
type peakBody struct {
	r    io.Reader
	peak int
}

func (b *peakBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
			b.peak = max(b.peak, runtime.NumGoroutine())
		}
	}
	return n, err
}

// TestImportEndpointKnobsBounded is TestImportKnobsBounded through the
// endpoint: one request asking for 20 000 workers and 50 million scenes
// per chunk imports its 3 scenes with at most GOMAXPROCS workers and
// allocations sized by the stream.
func TestImportEndpointKnobsBounded(t *testing.T) {
	s, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{Fsync: bestring.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := newMux(s)
	body := &peakBody{r: strings.NewReader(ndjsonBody(3))}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/import?parallelism=20000&chunk=50000000", body)
	rec := httptest.NewRecorder()
	baseline := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var out struct {
		Import bestring.ImportStats `json:"import"`
	}
	decode(t, rec, &out)
	if out.Import.Images != 3 || s.Len() != 3 {
		t.Fatalf("response = %+v, store holds %d, want 3 images", out, s.Len())
	}
	if limit := baseline + runtime.GOMAXPROCS(0) + 8; body.peak > limit {
		t.Fatalf("peak %d goroutines during the import, want <= %d (baseline %d + GOMAXPROCS %d + 8)",
			body.peak, limit, baseline, runtime.GOMAXPROCS(0))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("import of 3 scenes allocated %d MiB, want < 64", alloc>>20)
	}
}

func TestImportEndpointRequiresStore(t *testing.T) {
	rec := postStream(t, testMux(t), "/api/v1/import", ndjsonBody(1))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
}
