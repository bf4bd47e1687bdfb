package repl

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"bestring/internal/imagedb"
	"bestring/internal/obs"
)

// Both roles must expose replication lag under the same family name,
// and a converged pair must report zero lag on each side.
func TestReplicationMetricsBothRoles(t *testing.T) {
	primary, p, srv := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
	preg := obs.NewRegistry()
	p.EnableMetrics(preg)

	for i := 0; i < 20; i++ {
		if err := primary.Insert(fmt.Sprintf("img%d", i), "n", testImage(i)); err != nil {
			t.Fatal(err)
		}
	}

	fstore := newFollowerStore(t, t.TempDir())
	defer fstore.Close()
	fl, err := NewFollower(fstore, srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	freg := obs.NewRegistry()
	fl.EnableMetrics(freg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx)
	waitLSN(t, fstore, primary.AppliedLSN())

	// Wait until the follower's ack lands so the primary-side lag vec
	// reads zero, then give one heartbeat a chance to arrive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos := p.Followers()
		if len(infos) == 1 && infos[0].AckedLSN == primary.AppliedLSN() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ack never converged: %+v", infos)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var buf bytes.Buffer
	if err := preg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	ptext := buf.String()
	for _, want := range []string{
		"# TYPE bestring_repl_follower_lag_lsn gauge",
		fmt.Sprintf(`bestring_repl_follower_lag_lsn{follower="%s"} 0`, fstore.StoreID()),
		"bestring_repl_connected_followers 1",
		"bestring_repl_streams_total 1",
	} {
		if !strings.Contains(ptext, want) {
			t.Fatalf("primary exposition missing %q:\n%s", want, ptext)
		}
	}
	if !strings.Contains(ptext, "bestring_repl_acks_total") {
		t.Fatalf("primary exposition missing ack counter:\n%s", ptext)
	}

	buf.Reset()
	if err := freg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	ftext := buf.String()
	for _, want := range []string{
		"# TYPE bestring_repl_follower_lag_lsn gauge",
		"bestring_repl_follower_lag_lsn 0",
		"bestring_repl_lag_seconds 0",
		"bestring_repl_connected 1",
		"bestring_repl_reconnects_total 0",
		"bestring_repl_applied_records_total 20",
		"# TYPE bestring_repl_apply_seconds histogram",
	} {
		if !strings.Contains(ftext, want) {
			t.Fatalf("follower exposition missing %q:\n%s", want, ftext)
		}
	}
	if fl.metrics.appliedBatches.Value() == 0 {
		t.Fatal("no applied batches observed")
	}
	if fl.lastBeat.Load() == 0 {
		t.Fatal("heartbeat age never stamped")
	}
}

// A primary that loses its follower must count the reconnects
// follower-side and drop connected_followers back to zero.
func TestReplicationMetricsReconnects(t *testing.T) {
	primary, _, srv := newPrimary(t, imagedb.StoreOptions{Fsync: imagedb.FsyncAlways})
	if err := primary.Insert("a", "n", testImage(1)); err != nil {
		t.Fatal(err)
	}
	fstore := newFollowerStore(t, t.TempDir())
	defer fstore.Close()
	fl, err := NewFollower(fstore, srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	freg := obs.NewRegistry()
	fl.EnableMetrics(freg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx)
	waitLSN(t, fstore, primary.AppliedLSN())

	// Kill the primary's listener: the stream breaks and the follower
	// retries against a dead endpoint.
	srv.CloseClientConnections()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for fl.reconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no reconnect counted after primary went away")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := freg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bestring_repl_connected 0") {
		t.Fatalf("follower still reports connected:\n%s", buf.String())
	}
}
