// Command benchtab regenerates every evaluation artefact of the 2D
// BE-string paper as text tables (or CSV series): experiments E1-E8 of
// DESIGN.md, plus the engine experiments E9 (search scaling), E10
// (filtered-search scaling through the composable query pipeline; e7b
// is the adversarial clique companion), E11 (durable-store write
// throughput across fsync policy x batch size), E12 (snapshot-reader
// throughput under 0/1/4 concurrent writers), E14 (replication:
// follower catch-up throughput vs local replay, plus steady-state lag
// under paced writes) and E17 (streaming-ingest scaling: the chunked
// importer vs legacy chunk-looped BulkInsert across source format and
// chunk size). E13 (pruning on vs off), E15 (metrics off vs on) and E16
// (scorer cache on vs off) are retired with the switches they timed;
// their last tables are in EXPERIMENTS.md.
// Run with -exp all (default) or a single experiment id.
//
// Usage:
//
//	benchtab [-exp e1|e2|...|e11b|e12|e14|e17|all] [-quick] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bestring/internal/bench"
	"bestring/internal/retrieval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: e1..e12, e11b, e14, e17 or all")
	quick := fs.Bool("quick", false, "smaller sweeps (for smoke tests)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sweep := []int{4, 8, 16, 32, 64}
	lcsGrid := []int{4, 16, 64}
	mmParts := []int{3, 5, 7, 9, 11}
	scenesPerPoint := 20
	searchSizes := []int{1000, 4000, 10000}
	filteredSizes := []int{1000, 10000, 100000}
	selectivities := []int{1, 10, 100}
	walBatches := []int{1, 16, 128}
	commitWriters, commitWindow := []int{1, 2, 4, 8, 16, 32}, 400*time.Millisecond
	mixedCorpus, mixedReaders, mixedWindow := 4000, 4, 500*time.Millisecond
	mixedWriters := []int{0, 1, 4}
	ingestSizes, ingestChunks := []int{100000, 1000000}, []int{8192, 32768}
	replSizes, replPaced, replPace := []int{2000, 8000}, 300, 2*time.Millisecond
	qualityCfgs := bench.QualityConfigs(bench.DefaultSeed)
	if *quick {
		sweep = []int{4, 8}
		lcsGrid = []int{4, 8}
		mmParts = []int{3, 5}
		scenesPerPoint = 3
		searchSizes = []int{200, 500}
		filteredSizes = []int{300, 1000}
		walBatches = []int{1, 16}
		commitWriters, commitWindow = []int{1, 4, 16}, 150*time.Millisecond
		mixedCorpus, mixedReaders, mixedWindow = 800, 2, 150*time.Millisecond
		ingestSizes, ingestChunks = []int{5000}, []int{1024}
		replSizes, replPaced, replPace = []int{1000}, 80, time.Millisecond
		qualityCfgs = qualityCfgs[:1]
		qualityCfgs[0].Cfg = retrieval.WorkloadConfig{
			Seed: bench.DefaultSeed, Distractors: 10, Relevant: 2, Queries: 2, Jitter: 2,
		}
	}

	type job struct {
		id  string
		run func() (*bench.Table, error)
	}
	jobs := []job{
		{"e1", func() (*bench.Table, error) { return bench.Figure1(), nil }},
		{"e2", func() (*bench.Table, error) { return bench.Storage(sweep, scenesPerPoint) }},
		{"e3", func() (*bench.Table, error) { return bench.ConvertTiming(sweep), nil }},
		{"e4", func() (*bench.Table, error) { return bench.LCSTiming(lcsGrid, lcsGrid), nil }},
		{"e5", nil}, // expanded below: one table per difficulty
		{"e6", func() (*bench.Table, error) { return bench.Transforms(24, 10) }},
		{"e7", func() (*bench.Table, error) { return bench.MatchCost(sweep), nil }},
		{"e7b", func() (*bench.Table, error) { return bench.CliqueBlowup(mmParts), nil }},
		{"e8", func() (*bench.Table, error) { return bench.Incremental(sweep) }},
		{"e9", func() (*bench.Table, error) { return bench.SearchScaling(searchSizes, 10) }},
		{"e10", func() (*bench.Table, error) { return bench.FilteredSearch(filteredSizes, selectivities, 10) }},
		{"e11", func() (*bench.Table, error) { return bench.WALThroughput(walBatches) }},
		{"e11b", func() (*bench.Table, error) { return bench.GroupCommitScaling(commitWriters, commitWindow) }},
		{"e12", func() (*bench.Table, error) {
			return bench.MixedReadWrite(mixedCorpus, mixedWriters, mixedReaders, mixedWindow)
		}},
		{"e14", func() (*bench.Table, error) {
			return bench.ReplicationCatchup(replSizes, replPaced, replPace)
		}},
		{"e17", func() (*bench.Table, error) {
			return bench.IngestScaling(ingestSizes, ingestChunks)
		}},
	}

	emit := func(t *bench.Table) error {
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", t.ID, t.Caption, t.CSV())
			return nil
		}
		if err := t.Fprint(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	want := strings.ToLower(*exp)
	ran := false
	for _, j := range jobs {
		if want != "all" && want != j.id {
			continue
		}
		ran = true
		if j.id == "e5" {
			for _, qc := range qualityCfgs {
				t, err := bench.Quality(qc.Cfg)
				if err != nil {
					return fmt.Errorf("e5 %s: %w", qc.Name, err)
				}
				t.Caption = qc.Name + " workload: " + t.Caption
				if err := emit(t); err != nil {
					return fmt.Errorf("e5 %s: %w", qc.Name, err)
				}
			}
			continue
		}
		t, err := j.run()
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		if err := emit(t); err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want e1..e12, e11b, e14, e17, or all)", *exp)
	}
	return nil
}
