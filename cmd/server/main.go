// Command server exposes the 2D BE-string image database as a JSON REST
// API — the headless counterpart of cmd/demo, suitable for embedding the
// retrieval system in a larger application.
//
// Endpoints:
//
//	GET    /healthz                           liveness: snapshot epoch, entry and
//	                                          goroutine counts, commit and import
//	                                          tallies (+ WAL/checkpoint stats
//	                                          with -data-dir)
//	GET    /metrics                           Prometheus text exposition: query
//	                                          stage histograms, WAL/commit/
//	                                          replication instruments, HTTP
//	                                          counters
//	GET    /api/v1/images                     list stored ids
//	POST   /api/v1/images                     insert {"id","name","image"}
//	GET    /api/v1/images/{id}                fetch one entry (image, boxes, BE-string)
//	DELETE /api/v1/images/{id}                remove one entry
//	POST   /api/v1/search                     composable query: any mix of
//	                                          {"image","dsl","region","regionLabel",
//	                                          "scorer",k,offset,"cursor",minScore,
//	                                          whereMin,parallelism,labelPrefilter},
//	                                          or a concurrent batch {"queries":[...]};
//	                                          "consistent":true pins the whole
//	                                          request to one snapshot epoch
//	POST   /api/v1/import?format=ndjson|csv   streaming bulk ingest
//	GET    /repl/v1/stream?after=&follower=   primary: WAL replication stream
//	POST   /repl/v1/ack?follower=&lsn=        primary: follower progress ack
//
// Usage:
//
//	server [-addr :8081] [-data-dir DIR [-fsync always|interval|never]
//	       [-segment-bytes N] [-commit-batch 128]
//	       [-replicate-from URL]]
//	       [-seed 0 -count 0] [-shards 0]
//	       [-parallelism 0] [-slow-query 0] [-pprof-addr ""]
//
// Observability: GET /metrics serves the engine's registry in the
// Prometheus text format on every role (primary, follower,
// standalone). Every request is assigned (or propagates) an
// X-Request-Id — echoed on the response, carried through a follower's
// 307 write redirect, and used as the trace id the query pipeline
// records stage spans under. -slow-query logs any search at or above
// the threshold as one JSON line on stderr (trace id, route, compiled
// query shape, stage timings). -pprof-addr serves net/http/pprof on a
// separate listener, keeping profiling off the public port.
//
// Flags are validated up front: a negative -shards/-parallelism/-count/
// -segment-bytes, a -commit-batch below 1 or an unknown -fsync policy
// exits with a one-line error before anything is opened,
// instead of surfacing as undefined behavior deep in the engine.
//
// With -data-dir the server runs on the durable store: every mutation is
// written to the write-ahead log before it is acknowledged, and a restart
// (or crash) recovers the state from the latest snapshot plus the log
// tail. Concurrent mutations group-commit — they coalesce into one WAL
// append and share one fsync; a lone writer is a group of one and never
// waits. -commit-batch caps the group size (1: one WAL frame and one
// fsync per mutation). /healthz reports the coalescing counters under
// "commit".
//
// A durable server is always a capable replication primary: it serves
// its WAL on /repl/v1/stream and reports connected followers on
// /healthz. With -replicate-from the server instead runs as a read-only
// follower of the named primary — it replays the primary's WAL into its
// own store, serves the full read surface, answers writes with a 307
// redirect to the primary, and exposes its catch-up position
// (appliedLSN) on /healthz. Reads on either role may pass
// ?min_lsn=N on POST /api/v1/search to wait (bounded) until that LSN is
// visible, or receive a 404 — the read-your-writes handshake; primary
// write responses return the "lsn" token to pass.
//
// Without -data-dir the database lives in memory only and is lost on
// exit: it starts empty, or with -count synthetic scenes, and takes
// scenes through POST /api/v1/import. With -data-dir, -count seeds the
// store when it is empty. -shards partitions a synthetic or empty
// database (0 means max(GOMAXPROCS, 16)); a database recovered from a
// snapshot keeps the default shard count.
//
// SIGINT/SIGTERM triggers a graceful shutdown: in-flight requests drain,
// the WAL is flushed and the process exits 0 — the recovery smoke test
// in CI exercises exactly this path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bestring"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		log.Fatalf("server: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL + snapshots); without it the database is in memory only")
	fsyncS := fs.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval or never")
	segBytes := fs.Int64("segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = 4 MiB)")
	commitBatch := fs.Int("commit-batch", bestring.DefaultCommitBatch,
		"max mutations coalesced into one WAL append with -data-dir (1 = one frame and one fsync per mutation)")
	count := fs.Int("count", 0, "generate a synthetic database of this size when empty")
	seed := fs.Int64("seed", 1, "generator seed for -count")
	shards := fs.Int("shards", 0, "shard count for a synthetic or empty database (0 = max(GOMAXPROCS, 16))")
	parallelism := fs.Int("parallelism", 0, "default scoring workers for search requests that set none (0 = GOMAXPROCS)")
	replicateFrom := fs.String("replicate-from", "",
		"primary base URL to follow (e.g. http://127.0.0.1:8081); the store becomes a read-only replica (requires -data-dir)")
	slowQuery := fs.Duration("slow-query", 0,
		"log searches at or above this latency as JSON lines on stderr (0 disables)")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof on this separate address (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate every flag before opening anything: a bad value must be a
	// one-line startup error, not undefined behavior deep in the engine.
	if *replicateFrom != "" {
		if *dataDir == "" {
			return fmt.Errorf("-replicate-from requires -data-dir (the follower's own log and snapshots)")
		}
		if *count > 0 {
			return fmt.Errorf("-replicate-from and -count are mutually exclusive: a follower's state comes from its primary")
		}
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", *shards)
	}
	if *parallelism < 0 {
		return fmt.Errorf("-parallelism must be >= 0, got %d", *parallelism)
	}
	if *segBytes < 0 {
		return fmt.Errorf("-segment-bytes must be >= 0, got %d", *segBytes)
	}
	if *commitBatch < 1 {
		return fmt.Errorf("-commit-batch must be >= 1, got %d", *commitBatch)
	}
	if *count < 0 {
		return fmt.Errorf("-count must be >= 0, got %d", *count)
	}
	if *slowQuery < 0 {
		return fmt.Errorf("-slow-query must be >= 0, got %v", *slowQuery)
	}
	policy, err := bestring.ParseFsyncPolicy(*fsyncS)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The engine's instruments count from the moment each component is
	// built — the seed below included — and
	// /healthz reads the same counters; EnableMetrics only puts them on
	// the served registry. A scrape endpoint nobody polls costs nothing.
	reg := bestring.NewMetricsRegistry()
	slowLog := bestring.NewSlowQueryLog(os.Stderr, *slowQuery)

	var (
		db       *bestring.DB
		primary  *bestring.ReplicationPrimary
		follower *bestring.ReplicationFollower
	)
	if *dataDir != "" {
		opts := bestring.StoreOptions{
			Shards:       *shards,
			Fsync:        policy,
			SegmentBytes: *segBytes,
			CommitBatch:  *commitBatch,
			Replica:      *replicateFrom != "",
		}
		if db, err = bestring.OpenStore(*dataDir, opts); err != nil {
			return err
		}
	} else {
		db = bestring.NewDBSharded(*shards)
	}
	defer db.Close()
	if err := seedSynthetic(db, *count, *seed); err != nil {
		return err
	}
	db.EnableMetrics(reg)
	switch {
	case *replicateFrom != "":
		// Follower: replay the primary's WAL stream in the background;
		// the read surface serves whatever has been applied so far. A
		// permanent sync failure (divergence, pruned backlog) leaves the
		// server up, read-only on its last applied state — /healthz
		// reports the condition under "replication".
		if follower, err = bestring.NewReplicationFollower(db, *replicateFrom, 0); err != nil {
			return err
		}
		follower.EnableMetrics(reg)
		go func() {
			if err := follower.Run(ctx); err != nil {
				log.Printf("replication stopped permanently: %v", err)
			}
		}()
		log.Printf("durable store %s: following %s from lsn %d, %d images",
			*dataDir, *replicateFrom, db.AppliedLSN(), db.Len())
	case *dataDir != "":
		// Every durable server is a capable primary: the stream and ack
		// endpoints cost nothing until a follower connects.
		if primary, err = bestring.NewReplicationPrimary(db, 0); err != nil {
			return err
		}
		primary.EnableMetrics(reg)
		log.Printf("durable store %s: %d images, fsync=%s, lsn=%d",
			*dataDir, db.Len(), policy, db.StoreStats().LastLSN)
	}

	if *pprofAddr != "" {
		// pprof runs on its own listener with an explicit mux: the
		// profiling surface never shares a port with the public API, and
		// nothing registers on http.DefaultServeMux.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
		log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	srv := &http.Server{Addr: *addr, Handler: newServerMux(muxConfig{
		db: db, parallelism: *parallelism,
		primary: primary, follower: follower, primaryURL: *replicateFrom,
		metrics: reg, slowLog: slowLog,
	})}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	log.Printf("serving %d images on %s", db.Len(), *addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// The deferred Close also runs harmlessly; close now so a flush
	// failure surfaces as a non-zero exit.
	if err := db.Close(); err != nil {
		return err
	}
	return nil
}

// seedSynthetic fills an empty database with count generated scenes; a
// database that already holds images is left as it is.
func seedSynthetic(db *bestring.DB, count int, seed int64) error {
	if count <= 0 || db.Len() > 0 {
		return nil
	}
	cfg := bestring.SceneConfig{Seed: seed, Vocabulary: 24}
	return bestring.SeedScenes(context.Background(), db, cfg, count)
}
