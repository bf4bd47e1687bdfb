package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bestring"
)

// TestReplicationFlagValidation pins the follower-mode startup
// contract: -replicate-from without a data directory (or combined with
// synthetic seeding) is a one-line error.
func TestReplicationFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no data dir", []string{"-replicate-from", "http://x"}, "-data-dir"},
		{"with count", []string{"-replicate-from", "http://x", "-data-dir", "d", "-count", "5"}, "-count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want validation error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want mention of %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestReplicatedServers runs a primary and a follower mux end to end:
// writes land on the primary with an LSN token, the follower catches
// up, serves identical reads (honoring min_lsn), redirects writes, and
// both /healthz bodies report their replication role.
func TestReplicatedServers(t *testing.T) {
	// Primary: a durable store behind the full server mux.
	ps, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{Fsync: bestring.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	primary, err := bestring.NewReplicationPrimary(ps, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	primarySrv := httptest.NewServer(newServerMux(muxConfig{db: ps, primary: primary,
		metrics: bestring.NewMetricsRegistry()}))
	defer primarySrv.Close()

	img := map[string]any{
		"xmax": 6, "ymax": 6,
		"objects": []map[string]any{
			{"label": "A", "box": map[string]int{"x0": 0, "y0": 0, "x1": 2, "y1": 2}},
			{"label": "B", "box": map[string]int{"x0": 3, "y0": 3, "x1": 5, "y1": 5}},
		},
	}
	var lastLSN uint64
	for i := 0; i < 8; i++ {
		rec := do(t, primarySrv.Config.Handler, http.MethodPost, "/api/v1/images",
			map[string]any{"id": fmt.Sprintf("img-%d", i), "image": img})
		if rec.Code != http.StatusCreated {
			t.Fatalf("primary insert %d: status %d (%s)", i, rec.Code, rec.Body.String())
		}
		var resp struct {
			ID      string `json:"id"`
			LSN     uint64 `json:"lsn"`
			Durable uint64 `json:"durable"`
		}
		decode(t, rec, &resp)
		if resp.LSN == 0 || resp.Durable < resp.LSN {
			t.Fatalf("insert %d: lsn=%d durable=%d, want durable >= lsn > 0", i, resp.LSN, resp.Durable)
		}
		lastLSN = resp.LSN
	}

	// Follower: a replica store syncing from the primary, behind its own
	// mux that knows the primary's URL.
	fs, err := bestring.OpenStore(t.TempDir(), bestring.StoreOptions{
		Fsync: bestring.FsyncAlways, Replica: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	follower, err := bestring.NewReplicationFollower(fs, primarySrv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- follower.Run(ctx) }()
	followerMux := newServerMux(muxConfig{db: fs, follower: follower, primaryURL: primarySrv.URL,
		metrics: bestring.NewMetricsRegistry()})

	// min_lsn is the read-your-writes handshake: the follower serves the
	// read once (and only once) it has published the write's LSN.
	body := map[string]any{"image": img, "k": 3}
	rec := do(t, followerMux, http.MethodPost, fmt.Sprintf("/api/v1/search?min_lsn=%d", lastLSN), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("follower min_lsn search: status %d (%s)", rec.Code, rec.Body.String())
	}
	var page struct {
		Hits  []bestring.QueryHit `json:"hits"`
		Total int                 `json:"total"`
	}
	decode(t, rec, &page)
	if page.Total != 8 || len(page.Hits) != 3 {
		t.Fatalf("follower search: total=%d hits=%d, want 8/3", page.Total, len(page.Hits))
	}
	// An LSN the primary never wrote is a bounded wait then 404 — never
	// a silently stale answer.
	rec = do(t, followerMux, http.MethodPost, fmt.Sprintf("/api/v1/search?min_lsn=%d", lastLSN+100), body)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unreachable min_lsn: status %d, want 404", rec.Code)
	}

	// Writes on the follower redirect to the primary, method preserved.
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/images/img-0", nil)
	rr := httptest.NewRecorder()
	followerMux.ServeHTTP(rr, req)
	if rr.Code != http.StatusTemporaryRedirect {
		t.Fatalf("follower delete: status %d, want 307", rr.Code)
	}
	if loc := rr.Header().Get("Location"); loc != primarySrv.URL+"/api/v1/images/img-0" {
		t.Fatalf("follower delete redirects to %q", loc)
	}

	// Role and ledger on both health bodies.
	var fh struct {
		Role string `json:"role"`
		LSN  struct {
			Durable uint64 `json:"durable"`
			Applied uint64 `json:"applied"`
			Visible uint64 `json:"visible"`
			Oldest  uint64 `json:"oldest"`
		} `json:"lsn"`
		Replication struct {
			PrimaryURL string `json:"primaryURL"`
			Connected  bool   `json:"connected"`
			AppliedLSN uint64 `json:"appliedLSN"`
		} `json:"replication"`
	}
	decode(t, do(t, followerMux, http.MethodGet, "/healthz", nil), &fh)
	if fh.Role != "follower" || fh.Replication.PrimaryURL != primarySrv.URL {
		t.Fatalf("follower health = %+v", fh)
	}
	if fh.LSN.Applied < lastLSN || fh.LSN.Visible < lastLSN || fh.Replication.AppliedLSN < lastLSN {
		t.Fatalf("follower health lsn = %+v, want >= %d", fh.LSN, lastLSN)
	}

	var ph struct {
		Role string `json:"role"`
		LSN  struct {
			Durable uint64 `json:"durable"`
		} `json:"lsn"`
		Replication struct {
			Followers []struct {
				ID       string `json:"id"`
				AckedLSN uint64 `json:"ackedLSN"`
			} `json:"followers"`
		} `json:"replication"`
	}
	decode(t, do(t, primarySrv.Config.Handler, http.MethodGet, "/healthz", nil), &ph)
	if ph.Role != "primary" || ph.LSN.Durable < lastLSN {
		t.Fatalf("primary health = %+v", ph)
	}
	if len(ph.Replication.Followers) != 1 || ph.Replication.Followers[0].ID != fs.StoreID() {
		t.Fatalf("primary followers = %+v", ph.Replication.Followers)
	}

	// The follower's answer matches the primary's at the same LSN.
	var primaryPage struct {
		Hits []bestring.QueryHit `json:"hits"`
	}
	decode(t, do(t, primarySrv.Config.Handler, http.MethodPost, "/api/v1/search", body), &primaryPage)
	if len(primaryPage.Hits) != len(page.Hits) {
		t.Fatalf("hit count differs: primary %d follower %d", len(primaryPage.Hits), len(page.Hits))
	}
	for i := range page.Hits {
		if page.Hits[i].ID != primaryPage.Hits[i].ID || page.Hits[i].Score != primaryPage.Hits[i].Score {
			t.Fatalf("hit %d differs: primary %+v follower %+v", i, primaryPage.Hits[i], page.Hits[i])
		}
	}

	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("follower run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower run did not stop")
	}
}

// TestMinLSNValidation pins the parameter contract: a malformed value
// is a 400, and an in-memory database (which publishes no LSNs) serves
// min_lsn=0 and answers any higher LSN with an immediate 404.
func TestMinLSNValidation(t *testing.T) {
	mux := testMux(t)
	body := map[string]any{"k": 1}
	if rec := do(t, mux, http.MethodPost, "/api/v1/search?min_lsn=nope", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad min_lsn: status %d, want 400", rec.Code)
	}
	query := map[string]any{"dsl": "icon03 left-of icon05", "k": 1}
	if rec := do(t, mux, http.MethodPost, "/api/v1/search?min_lsn=0", query); rec.Code != http.StatusOK {
		t.Fatalf("min_lsn=0 on memory db: status %d (%s), want 200", rec.Code, rec.Body)
	}
	start := time.Now()
	if rec := do(t, mux, http.MethodPost, "/api/v1/search?min_lsn=3", query); rec.Code != http.StatusNotFound {
		t.Fatalf("min_lsn=3 on memory db: status %d, want 404", rec.Code)
	}
	if waited := time.Since(start); waited >= minLSNWait {
		t.Fatalf("min_lsn=3 on memory db waited %v for an LSN it can never publish", waited)
	}
}
