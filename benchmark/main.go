// Command benchmark is the socket-to-socket load harness for
// cmd/server: it builds the server, runs it as a child process on a
// fresh data directory, loads a seeded corpus over HTTP, drives one of
// four named workloads from at most two connections, checks every
// answer, and prints the metrics BENCHMARK.json declares. See README.md.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//	benchmark all [--runs R] [--seed N] [--out FILE] [--against DIR]   every workload, R runs each
//	benchmark compare A.json B.json                              verdict per (metric, workload)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	// SIGINT/SIGTERM cancel the context; every loop and child process
	// hangs off it, and run's deferred cleanup reaps the server and
	// removes its data directory before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: benchmark compare A.json B.json")
			}
			return compare(sp, args[1], args[2], os.Stdout)
		case "all":
			return runAll(ctx, root, sp, args[1:])
		}
	}
	return runOne(ctx, root, sp, args)
}

// runOne is the benchmark contract's entry point: one workload, one
// seed, and the report as the last line of standard output.
func runOne(ctx context.Context, root string, sp *spec, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of ranked_scan, filtered_mix, write_churn, mixed_open")
	seed := fs.Int64("seed", 1, "the only input that changes the generated corpus and requests")
	secs := fs.Float64("seconds", float64(sp.RunSeconds), "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloads, *workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	rep, err := run(ctx, root, sp, runConfig{
		workload: *workload, seed: *seed, seconds: *secs, traced: *trace == 1, scenes: defaultScenes})
	if err != nil {
		return err
	}
	printReport(rep)
	if !rep.Correct {
		return fmt.Errorf("%d of %d checks failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// printReport lists every metric by name with its unit, then the
// contract's JSON object on the last line.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-36s %14.6g %s", name, m.Value, m.Unit)
		if raw, ok := rep.raw[name]; ok && raw != m.Value {
			fmt.Printf("   (as measured: %.6g)", raw)
		}
		fmt.Println()
	}
	fmt.Printf("%-36s %14.6g   (the probe's time over its reference, whole run)\n", "host factor", rep.hostFactor)
	line, _ := json.Marshal(rep) // a struct of numbers and strings
	fmt.Println(string(line))
}

// runRecord is one run inside a result set, the input of compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	report
}

type resultSet struct {
	Runs []runRecord `json:"runs"`
}

// side is one checkout being measured by runAll and the result set its
// runs are written to.
type side struct {
	root, out string
	set       resultSet
}

// runAll runs every workload R times untraced, on seeds seed..seed+R-1,
// and once traced, and writes the runs as one result set. It goes round
// the workloads once per seed instead of finishing one workload first:
// this host's speed drifts by tens of percent over tens of minutes, and
// a block of runs would pin each workload to one phase of it. With
// --against DIR every run is made in both checkouts, back to back and
// alternating which goes first, so that the two result sets see the
// same host; `--against .` is the A/A test of the benchmark itself.
// Each run is a child `bash benchmark/run.sh` in its checkout, so both
// sides are measured by their own harness in the same way.
func runAll(ctx context.Context, root string, sp *spec, args []string) error {
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	runs := fs.Int("runs", 1, "untraced runs per workload, each on the next seed")
	seed := fs.Int64("seed", 1, "first seed")
	out := fs.String("out", filepath.Join(root, outDir, "results.json"), "result set to write")
	against := fs.String("against", "", "a second checkout to measure in alternation with this one; its result set is written beside --out as NAME.against.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sides := []*side{{root: root, out: *out}}
	if *against != "" {
		other, err := filepath.Abs(*against)
		if err != nil {
			return err
		}
		sides = append(sides, &side{root: other, out: strings.TrimSuffix(*out, ".json") + ".against.json"})
	}
	failed := 0
	for _, st := range runOrder(workloads, *runs, *seed, len(sides)) {
		s := sides[st.side]
		fmt.Printf("== %s %s seed %d trace %d\n", s.root, st.rec.Workload, st.rec.Seed, st.rec.Trace)
		rep, err := runChild(ctx, s.root, st.rec, sp.RunSeconds)
		if err != nil {
			return err
		}
		if !rep.Correct {
			failed++
		}
		st.rec.report = *rep
		s.set.Runs = append(s.set.Runs, st.rec)
	}
	for _, s := range sides {
		data, err := json.MarshalIndent(s.set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.out, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", s.out)
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their checks", failed)
	}
	return nil
}

// step is one run of runAll's plan: which side makes it, and what it is.
type step struct {
	side int
	rec  runRecord
}

// runOrder lays out runAll's runs: round i takes every workload on seed
// first+i (the last round is the traced one, on the first seed), every
// side makes each run before the next run starts, and which side goes
// first alternates from run to run.
func runOrder(names []string, runs int, first int64, sides int) []step {
	var plan []step
	for i := 0; i <= runs; i++ {
		for wi, name := range names {
			rec := runRecord{Workload: name, Seed: first + int64(i)}
			if i == runs {
				rec.Seed, rec.Trace = first, 1
			}
			for k := 0; k < sides; k++ {
				plan = append(plan, step{side: (k + i + wi) % sides, rec: rec})
			}
		}
	}
	return plan
}

// runChild makes one run in the checkout at root through its run.sh and
// returns the report on the last line of its output. A run whose checks
// failed exits non-zero but still reports; one that printed no report
// is an error.
func runChild(ctx context.Context, root string, rec runRecord, secs int) (*report, error) {
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh", "--workload", rec.Workload,
		"--seed", strconv.FormatInt(rec.Seed, 10), "--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(rec.Trace))
	cmd.Dir = root
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	// An interrupt reaches the child as an interrupt, so that it reaps its
	// server and removes its data directory before it goes.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || rep.Metrics == nil {
		return nil, fmt.Errorf("%s: run of %s printed no report (%v)", root, rec.Workload, runErr)
	}
	return &rep, nil
}
