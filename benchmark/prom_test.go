package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics-{before,after}.txt are two /metrics bodies captured
// from cmd/server at the seed commit: after importing 500 scenes, and
// again after 3 inserts, 1 delete and 2 searches.
func scrapeFile(t *testing.T, name string) samples {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromCapturedBody(t *testing.T) {
	s := scrapeFile(t, "metrics-before.txt")
	for series, want := range map[string]float64{
		"bestring_import_images_total":                                 500,
		"bestring_store_images":                                        500,
		`bestring_http_requests_total{code="200",route="/api/import"}`: 1,
		`bestring_http_request_seconds_count{route="/api/import"}`:     1,
		"bestring_commit_groups_total":                                 0,
		`bestring_query_plan_total{plan="scan"}`:                       0,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for series := range s {
		if strings.Contains(series, "_bucket") {
			t.Fatalf("bucket series %s was kept", series)
		}
	}
	if sum, count := s.hist(`bestring_http_request_seconds{route="/api/import"}`); count != 1 || sum <= 0 {
		t.Errorf("import histogram sum %v count %v", sum, count)
	}
}

func TestHistogramDelta(t *testing.T) {
	before, after := scrapeFile(t, "metrics-before.txt"), scrapeFile(t, "metrics-after.txt")
	d := after.sub(before)
	if got := d["bestring_commit_mutations_total"]; got != 4 {
		t.Errorf("mutations delta %v, want 4", got)
	}
	// A series the server registers on first use is absent before and
	// must count from zero.
	sum, count := d.hist(`bestring_http_request_seconds{route="/api/search"}`)
	if count != 2 || sum <= 0 {
		t.Errorf("search histogram delta: sum %v count %v, want count 2", sum, count)
	}
	if _, ok := before[`bestring_http_request_seconds_count{route="/api/search"}`]; ok {
		t.Error("capture no longer exercises a series that is absent before")
	}
	sum, count = d.hist("bestring_commit_group_seconds")
	if count < 1 || count > 4 || sum <= 0 {
		t.Errorf("group histogram delta: sum %v count %v", sum, count)
	}
	if got, want := d.histMeanMS("bestring_commit_group_seconds"), sum*1e3/count; math.Abs(got-want) > 1e-9 {
		t.Errorf("histMeanMS %v, want %v", got, want)
	}
	// 3 inserts on /api/images, 1 delete on /api/images/{id}.
	if _, n := d.hist(`bestring_http_request_seconds{route="/api/images"}`); n != 3 {
		t.Errorf("insert count delta %v, want 3", n)
	}
	if _, n := d.hist(`bestring_http_request_seconds{route="/api/images/{id}"}`); n != 1 {
		t.Errorf("delete count delta %v, want 1", n)
	}
	if got := d.histMeanMS("bestring_no_such_family"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("bestring_x not-a-number\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
