package bench

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"bestring/internal/core"
	"bestring/internal/imagedb"
	"bestring/internal/obs"
	"bestring/internal/workload"
)

// ObservabilityOverhead is experiment E15: what the metrics layer costs
// on the hot paths. Each row measures the staged search pipeline and
// the durable write path on identical data both ways — metrics
// disabled (the nil-instrument fast path every query pays: one atomic
// pointer load) and with a live registry feeding every counter and
// histogram — with the timed passes interleaved so machine drift hits
// both sides equally. The acceptance bar is <= 2% overhead on the
// search path at the 10k-scene point; the write rows use fsync=never
// so the instrument cost is not hidden under fsync latency.
func ObservabilityOverhead(sizes []int, queries, writes int) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Caption: "observability overhead: search and write paths, metrics off vs on",
		Header: []string{"scenes", "search off µs", "search on µs", "search Δ",
			"write off rec/s", "write on rec/s", "write Δ"},
	}
	for _, n := range sizes {
		if err := obsOverheadPoint(t, n, queries, writes); err != nil {
			return nil, fmt.Errorf("E15: %w", err)
		}
	}
	return t, nil
}

// obsOverheadPoint runs one E15 row: search off/on at n scenes, then
// write off/on.
func obsOverheadPoint(t *Table, n, queries, writes int) error {
	// Same rationale as E11b/E14: compare the instrument cost, not the
	// collector's schedule.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed + 15, Vocabulary: 32, Objects: 8,
	})
	scenes := gen.Dataset(n)
	// Two identical DBs, one instrumented, one not: timed passes are
	// interleaved off/on so GC state, cache warming and machine drift
	// hit both sides equally instead of biasing whichever ran second.
	// (A registry cannot be detached, so one DB measured twice would
	// force a fixed off-then-on order.)
	dbOff, dbOn := imagedb.New(), imagedb.New()
	for i, img := range scenes {
		id := fmt.Sprintf("img%08d", i)
		if err := dbOff.Insert(id, "", img); err != nil {
			return err
		}
		if err := dbOn.Insert(id, "", img); err != nil {
			return err
		}
	}
	dbOn.EnableMetrics(obs.NewRegistry())
	probes := scenes
	if len(probes) > 32 {
		probes = probes[:32]
	}

	searchOff, searchOn, err := searchPair(dbOff, dbOn, probes, queries)
	if err != nil {
		return err
	}
	writeOff, writeOn, err := writePair(scenes, writes)
	if err != nil {
		return err
	}

	t.AddRow(FmtInt(n),
		fmt.Sprintf("%.1f", float64(searchOff)/float64(time.Microsecond)),
		fmt.Sprintf("%.1f", float64(searchOn)/float64(time.Microsecond)),
		fmtDelta(float64(searchOn), float64(searchOff)),
		fmt.Sprintf("%.0f", writeOff), fmt.Sprintf("%.0f", writeOn),
		// Write throughput: on-rate below off-rate is the overhead.
		fmtDelta(writeOff, writeOn))
	return nil
}

// fmtDelta renders the relative cost of the instrumented measurement:
// positive means metrics made it slower.
func fmtDelta(slower, baseline float64) string {
	if baseline <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (slower-baseline)/baseline*100)
}

// searchPair measures mean time per staged-pipeline search on the two
// DBs with timed passes interleaved (off, on, off, on, ...): one
// warmup pass each, then the best of three alternating rounds per
// side, so a single unlucky scheduling quantum cannot set either
// column and slow drift cannot bias one side.
func searchPair(dbOff, dbOn *imagedb.DB, probes []core.Image, queries int) (off, on time.Duration, err error) {
	ctx := context.Background()
	pass := func(db *imagedb.DB) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < queries; i++ {
			if _, err := db.Query(ctx, imagedb.NewQuery(probes[i%len(probes)]), imagedb.WithK(10)); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(queries), nil
	}
	for round := 0; round < 4; round++ {
		dOff, err := pass(dbOff)
		if err != nil {
			return 0, 0, err
		}
		dOn, err := pass(dbOn)
		if err != nil {
			return 0, 0, err
		}
		if round == 0 { // warmup
			continue
		}
		if off == 0 || dOff < off {
			off = dOff
		}
		if on == 0 || dOn < on {
			on = dOn
		}
	}
	return off, on, nil
}

// writePair measures durable-store insert throughput (rec/s) into
// fresh fsync=never stores, alternating uninstrumented and
// instrumented runs; best of two rounds per side.
func writePair(scenes []core.Image, writes int) (off, on float64, err error) {
	run := func(metrics bool) (float64, error) {
		dir, err := os.MkdirTemp("", "bestring-e15-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		s, err := imagedb.OpenStore(dir, imagedb.StoreOptions{
			Fsync: imagedb.FsyncNever, CheckpointBytes: -1,
		})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		if metrics {
			s.EnableMetrics(obs.NewRegistry())
		}
		start := time.Now()
		for i := 0; i < writes; i++ {
			if err := s.Insert(fmt.Sprintf("w%08d", i), "", scenes[i%len(scenes)]); err != nil {
				return 0, err
			}
		}
		return float64(writes) / time.Since(start).Seconds(), nil
	}
	for round := 0; round < 2; round++ {
		rOff, err := run(false)
		if err != nil {
			return 0, 0, err
		}
		rOn, err := run(true)
		if err != nil {
			return 0, 0, err
		}
		if rOff > off {
			off = rOff
		}
		if rOn > on {
			on = rOn
		}
	}
	return off, on, nil
}
