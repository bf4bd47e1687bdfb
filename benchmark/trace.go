package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Prometheus series the layer budget reads.
const (
	mHTTPSeconds = "bestring_http_request_seconds"
	routeSearch  = `{route="/api/search"}`
	routeInsert  = `{route="/api/images"}`
	routeByID    = `{route="/api/images/{id}"}`
	routeImport  = `{route="/api/import"}`
)

// traced is the per-layer run on one server: an untraced window for
// the overhead ratio, then the traced window — "debug":true on every
// search, /metrics and /healthz scraped before and after, client spans
// kept in memory — then the in-process layer timings, the layer budget
// and the trace file.
func (bn *bench) traced(values map[string]float64) error {
	l, err := bn.measured()
	if err != nil {
		return err
	}
	defer l.close()
	ctx, srv, cfg, t, root := bn.ctx, l.srv, bn.cfg, bn.tally, bn.root
	plain := l.phase(phaseMeasure, seconds(cfg.seconds*untracedShare), false)
	t.add(plain)

	before, err := srv.metrics(ctx)
	if err != nil {
		return err
	}
	healthBefore, err := srv.health(ctx)
	if err != nil {
		return err
	}
	cpu0 := cpuSeconds()
	win := l.phase(phaseTrace, seconds(cfg.seconds*(1-untracedShare)), true)
	cpu := cpuSeconds() - cpu0
	after, err := srv.metrics(ctx)
	if err != nil {
		return err
	}
	healthAfter, err := srv.health(ctx)
	if err != nil {
		return err
	}
	t.add(win)
	delta := after.sub(before)

	values["loadgen.samples"] = float64(len(win.results))
	values["loadgen.cpu_share"] = ratio(cpu, win.elapsed.Seconds()*maxClients)
	values["loadgen.late_ratio"] = ratio(float64(win.late), float64(len(win.results)))
	values["loadgen.max_lag_ms"] = float64(win.maxLag) / 1e6
	// How long an arrival waited for a free connection: the part of an open
	// loop's due-time latency that the end-to-end latencies, timed from the
	// send, leave out. A closed loop sends at once.
	waits := make([]float64, len(win.results))
	for i := range win.results {
		waits[i] = float64(win.results[i].encodeStart.Sub(win.results[i].due)) / 1e6
	}
	values["loadgen.queue_wait_p95_ms"], _ = percentile(waits, 95)
	values["trace.overhead_ratio"] = ratio(win.serviceRate(), plain.serviceRate())
	// Per-layer numbers are raw readings; this says what the host was
	// doing to them.
	values["loadgen.host_factor"] = bn.host.factor(win.start, win.start.Add(win.elapsed))

	b := newBudget(win, delta, values)
	values["server.unexplained_ratio"] = b.unexplainedRatio(cfg.workload)
	values["imagedb.scorercache.evictions"] = delta["bestring_scorer_cache_evictions_total"]
	values["imagedb.checkpoints"] = after["bestring_checkpoints_total"]
	values["imagedb.import_chunks"] = after["bestring_import_chunks_total"]
	importSeconds, _ := after.hist(mHTTPSeconds + routeImport)
	values["imagedb.import_rows_per_s"] = ratio(after["bestring_import_images_total"], importSeconds)
	values["wal.rotations"] = float64(healthAfter.WAL.Segments - healthBefore.WAL.Segments)
	disk, err := srv.diskBytes()
	if err != nil {
		return err
	}
	values["imagedb.disk_bytes_per_scene"] = ratio(float64(disk), float64(healthAfter.Images))

	// The crash the restart metric prices, replayed by the WAL layer
	// alone: what share of restart_s is reading the log back.
	srv.kill()
	if values["wal.replay_records_per_s"], err = timeWALReplay(srv.dir); err != nil {
		return err
	}
	layers, err := timeLayers(newLayerInputs(bn.c, bn.ndjson), filepath.Join(root, buildDir))
	if err != nil {
		return err
	}
	for k, v := range layers {
		values[k] = v
	}

	table := b.table(cfg.workload)
	fmt.Print(table)
	out := filepath.Join(root, outDir)
	if err := os.WriteFile(filepath.Join(out, "budget-"+cfg.workload+".md"), []byte(table), 0o644); err != nil {
		return err
	}
	b.check(cfg.workload, t)
	return writeTrace(filepath.Join(out, "trace-"+cfg.workload+".json"), win)
}

// budget is the traced window's time, attributed. All times are means
// per operation in milliseconds, so rows add up.
type budget struct {
	searches, gets, writes int
	// Client side (C): round trip from request write to last response byte.
	searchWall, getWall, writeWall float64
	encode, decode                 float64 // client spans, mean over all ops
	// Server handler time from /metrics (M).
	searchHandler, getHandler, writeHandler float64
	// Pipeline stages from "debug":true (D).
	index, region, filter, rank, query float64
	// Commit path from /metrics (M).
	queueWait, group, walAppend float64
	httpRatio                   float64
}

// newBudget attributes the traced window's time from the client spans,
// the "debug" fields of its searches and the /metrics delta d, and
// stores the per-layer metrics they yield in v.
func newBudget(win window, d samples, v map[string]float64) *budget {
	b := &budget{}
	var overhead []float64
	var wallAll, reqBytes, respBytes float64
	var narrowed, evaluated, pruned, hits, cacheHits, cacheMisses float64
	plans := map[string]float64{}
	for i := range win.results {
		r := &win.results[i]
		if r.err != "" {
			continue
		}
		wall := float64(r.recv.Sub(r.sent)) / 1e6
		wallAll += wall
		b.encode += float64(r.sent.Sub(r.encodeStart)) / 1e6
		b.decode += float64(r.done.Sub(r.recv)) / 1e6
		reqBytes += float64(r.reqBytes)
		respBytes += float64(r.respBytes)
		switch {
		case r.req.kind.isWrite():
			b.writes++
			b.writeWall += wall
		case r.req.kind == opGet:
			b.gets++
			b.getWall += wall
		case r.search != nil && r.search.Stages != nil:
			b.searches++
			b.searchWall += wall
			st := r.search.Stages
			b.index += float64(st.IndexNs) / 1e6
			b.region += float64(st.RegionNs) / 1e6
			b.filter += float64(st.FilterNs) / 1e6
			b.rank += float64(st.RankNs) / 1e6
			b.query += float64(st.TotalNs) / 1e6
			overhead = append(overhead, wall-float64(st.TotalNs)/1e6)
			narrowed += float64(st.Narrowed)
			evaluated += float64(st.Evaluated)
			pruned += float64(st.Pruned)
			hits += float64(len(r.search.Hits))
			if plan := r.search.Plan; plan != nil {
				plans[plan.Name]++
				cacheHits += float64(plan.CacheHits)
				cacheMisses += float64(plan.CacheMisses)
			}
		}
	}
	ops := float64(b.searches + b.gets + b.writes)
	ns := float64(b.searches)
	for _, p := range []*float64{&b.searchWall, &b.index, &b.region, &b.filter, &b.rank, &b.query} {
		*p = ratio(*p, ns)
	}
	b.getWall = ratio(b.getWall, float64(b.gets))
	b.writeWall = ratio(b.writeWall, float64(b.writes))
	b.encode, b.decode = ratio(b.encode, ops), ratio(b.decode, ops)

	b.searchHandler = d.histMeanMS(mHTTPSeconds + routeSearch)
	searchSum, _ := d.hist(mHTTPSeconds + routeSearch)
	insertSum, insertN := d.hist(mHTTPSeconds + routeInsert)
	byIDSum, byIDN := d.hist(mHTTPSeconds + routeByID)
	if b.gets > 0 { // a traced window holds GETs or DELETEs on this route, never both
		b.getHandler = ratio(byIDSum*1e3, byIDN)
		b.writeHandler = ratio(insertSum*1e3, insertN)
	} else {
		b.writeHandler = ratio((insertSum+byIDSum)*1e3, insertN+byIDN)
	}
	b.httpRatio = ratio((searchSum+insertSum+byIDSum)*1e3, wallAll)

	b.queueWait = d.histMeanMS("bestring_commit_queue_wait_seconds")
	b.group = d.histMeanMS("bestring_commit_group_seconds")
	groupSum, groups := d.hist("bestring_commit_group_seconds")
	appendSum, _ := d.hist("bestring_wal_append_seconds")
	b.walAppend = ratio(appendSum*1e3, groups)
	mutations := d["bestring_commit_mutations_total"]

	v["server.read_overhead_ms"] = median(overhead)
	v["server.write_overhead_ms"] = 0
	if b.writes > 0 {
		v["server.write_overhead_ms"] = b.writeWall - b.queueWait - b.group
	}
	v["server.request_bytes"] = ratio(reqBytes, ops)
	v["server.response_bytes"] = ratio(respBytes, ops)
	v["server.http_seconds_ratio"] = b.httpRatio
	v["imagedb.index_ms"], v["imagedb.region_ms"] = b.index, b.region
	v["imagedb.filter_ms"], v["imagedb.rank_ms"], v["imagedb.query_ms"] = b.filter, b.rank, b.query
	v["imagedb.narrowed_per_query"] = ratio(narrowed, ns)
	v["imagedb.evaluated_per_query"] = ratio(evaluated, ns)
	v["imagedb.pruned_ratio"] = ratio(pruned, pruned+evaluated)
	v["imagedb.evaluated_per_hit"] = ratio(evaluated, hits)
	for _, plan := range []string{"fixed", "label-first", "region-first", "filter-first", "scan"} {
		v["imagedb.plan."+plan+"_share"] = ratio(plans[plan], ns)
	}
	v["imagedb.scorercache.hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)
	v["imagedb.commit.queue_wait_ms"] = b.queueWait
	v["imagedb.commit.group_ms"] = b.group
	v["imagedb.commit.mean_group_size"] = ratio(mutations, groups)
	v["imagedb.publish_ms"] = ratio((groupSum-appendSum)*1e3, groups)
	v["wal.append_ms"] = d.histMeanMS("bestring_wal_append_seconds")
	v["wal.fsync_ms"] = d.histMeanMS("bestring_wal_fsync_seconds")
	v["wal.fsyncs_per_write"] = ratio(d["bestring_wal_fsyncs_total"], mutations)
	v["wal.bytes_per_write"] = ratio(d["bestring_wal_append_bytes_total"], mutations)
	return b
}

// Unexplained remainders: time inside an instrumented interval that no
// finer instrument covers. For a search that is pipeline time outside
// the four stages; for a write it is handler time outside the commit
// queue and the commit group (decode, convert, prepare, respond).
func (b *budget) readRemainder() float64  { return b.query - b.index - b.region - b.filter - b.rank }
func (b *budget) writeRemainder() float64 { return b.writeHandler - b.queueWait - b.group }

// table renders the budget: client wall on top, then the rows that sum
// to it.
func (b *budget) table(workload string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Layer budget: %s (traced window, mean ms per operation)\n\n", workload)
	section := func(title string, n int, wall float64, rows [][2]any) {
		if n == 0 {
			return
		}
		fmt.Fprintf(&sb, "## %s (%d operations)\n\n| row | ms | share of wall |\n|---|---|---|\n", title, n)
		fmt.Fprintf(&sb, "| client wall, request write to last response byte | %.4f | 100%% |\n", wall)
		for _, r := range rows {
			fmt.Fprintf(&sb, "| %s | %.4f | %.1f%% |\n", r[0], r[1], 100*ratio(r[1].(float64), wall))
		}
		sb.WriteString("\n")
	}
	section("search", b.searches, b.searchWall, [][2]any{
		{"transport and client (wall − server handler)", b.searchWall - b.searchHandler},
		{"cmd/server codec (handler − pipeline)", b.searchHandler - b.query},
		{"imagedb index stage", b.index},
		{"imagedb region stage", b.region},
		{"imagedb filter stage", b.filter},
		{"imagedb rank stage", b.rank},
		{"unexplained (pipeline − stages)", b.readRemainder()},
	})
	section("get", b.gets, b.getWall, [][2]any{
		{"transport and client (wall − server handler)", b.getWall - b.getHandler},
		{"cmd/server handler", b.getHandler},
	})
	section("write", b.writes, b.writeWall, [][2]any{
		{"transport and client (wall − server handler)", b.writeWall - b.writeHandler},
		{"imagedb commit queue wait", b.queueWait},
		{"wal append + fsync (per group)", b.walAppend},
		{"imagedb apply + publish (group − wal append)", b.group - b.walAppend},
		{"unexplained (handler − queue − group: decode, convert, respond)", b.writeRemainder()},
	})
	fmt.Fprintf(&sb, "client encode %.4f ms and decode+check %.4f ms per operation lie outside the wall.\n", b.encode, b.decode)
	fmt.Fprintf(&sb, "server.http_seconds_ratio (Σ server handler ÷ Σ client wall) = %.4f\n", b.httpRatio)
	return sb.String()
}

// Reconciliation limits of ISSUE 13: the unexplained remainder should
// stay under remainderLimit of the dominant operation's wall, and the
// handler-to-wall ratio inside [httpRatioFloor, 1].
const (
	remainderLimit = 0.10
	httpRatioFloor = 0.85
)

// unexplainedRatio is the remainder's share of the dominant
// operation's wall.
func (b *budget) unexplainedRatio(workload string) float64 {
	if workload == "write_churn" {
		return ratio(b.writeRemainder(), b.writeWall)
	}
	return ratio(b.readRemainder(), b.searchWall)
}

// check reconciles the budget. A server that reports more handler time
// than the client waited, or stages that outlast their pipeline, means
// an instrument or the harness is broken, and fails the run. Leaving
// ISSUE 13's limits only warns: both are shares of the wall, so they
// are crossed as soon as a change shrinks the explained part (a write
// path twice as fast doubles the share of decode and transport), and a
// benchmark must not fail a run for getting faster.
func (b *budget) check(workload string, t *tally) {
	rem := b.unexplainedRatio(workload)
	t.check(b.httpRatio <= 1, "budget: server.http_seconds_ratio %.4f: handlers outlast the client's wait", b.httpRatio)
	t.check(rem >= -remainderLimit, "budget: unexplained share %.4f is negative: stages outlast their interval", rem)
	if rem > remainderLimit {
		fmt.Fprintf(os.Stderr, "WARNING: budget: unexplained remainder is %.1f%% of wall (limit %.0f%%)\n", 100*rem, 100*remainderLimit)
	}
	if b.httpRatio < httpRatioFloor {
		fmt.Fprintf(os.Stderr, "WARNING: budget: server.http_seconds_ratio %.4f below %.2f: transport is a large share of these operations\n", b.httpRatio, httpRatioFloor)
	}
}

// span is one client-side interval of an operation, in microseconds
// from the first operation's start.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracedOp is one operation in the trace file: its spans share the id,
// and the server's own account of the request rides along.
type tracedOp struct {
	ID     int          `json:"id"`
	Kind   string       `json:"kind"`
	Hot    int          `json:"hot,omitempty"` // popularity rank in the hot set
	DueUS  float64      `json:"due_us"`
	Error  string       `json:"error,omitempty"`
	Spans  []span       `json:"spans"`
	Stages *stageCounts `json:"stages,omitempty"`
	Plan   *planInfo    `json:"plan,omitempty"`
}

func writeTrace(path string, win window) error {
	if len(win.results) == 0 {
		return nil
	}
	origin := win.results[0].encodeStart
	for i := range win.results {
		if t := win.results[i].encodeStart; t.Before(origin) {
			origin = t
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(origin)) / 1e3 }
	ops := make([]tracedOp, len(win.results))
	for i := range win.results {
		r := &win.results[i]
		ops[i] = tracedOp{ID: i, Kind: r.req.kind.String(), Hot: r.req.hot, Error: r.err, DueUS: us(r.due),
			Spans: []span{
				{"encode", us(r.encodeStart), us(r.sent)},
				{"roundtrip", us(r.sent), us(r.recv)},
				{"decode", us(r.recv), us(r.done)},
			}}
		if r.search != nil {
			ops[i].Stages, ops[i].Plan = r.search.Stages, r.search.Plan
		}
	}
	data, err := json.Marshal(ops)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
