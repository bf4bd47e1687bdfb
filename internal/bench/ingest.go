package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"bestring/internal/imagedb"
	"bestring/internal/ingest"
	"bestring/internal/workload"
)

// This file is experiment E17 (EXPERIMENTS.md): streaming-ingest scaling.
// It compares the legacy load strategy — materialise a batch, loop
// BulkInsert over fixed chunks — against the streaming importer across
// source format and chunk size, reporting sustained
// rows/s and the peak heap each strategy held. The legacy loop pays one
// full COW shard copy per small chunk, so its cost curve bends with
// corpus size; the importer's byte-bounded chunks amortise commits and
// its pipeline overlaps conversion with the WAL/publish critical section.

// legacyChunk is the fixed batch size the pre-importer loading scripts
// used; the E17 baseline preserves it.
const legacyChunk = 2048

// heapSampler tracks the peak live heap while a load runs. Polling
// ReadMemStats at a coarse interval keeps the observer effect far below
// the allocation rates being measured.
type heapSampler struct {
	peak uint64 // atomic; bytes
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	runtime.GC() // settle the previous point's garbage before baselining
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > atomic.LoadUint64(&h.peak) {
				atomic.StoreUint64(&h.peak, ms.HeapAlloc)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the observed peak heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(atomic.LoadUint64(&h.peak)) / (1 << 20)
}

// ingestStore opens a fresh throwaway store tuned for load measurement:
// auto-checkpoint off so snapshot writes don't pollute the timings.
func ingestStore() (*imagedb.DB, string, error) {
	dir, err := os.MkdirTemp("", "bestring-e17-*")
	if err != nil {
		return nil, "", err
	}
	s, err := imagedb.OpenStore(dir, imagedb.StoreOptions{
		Fsync:           imagedb.FsyncAlways,
		CheckpointBytes: -1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return s, dir, nil
}

// sceneSeq streams n deterministic synthetic scenes without ever
// materialising the corpus — the generator is the "file" the importer
// reads.
func sceneSeq(n int) ingest.Reader {
	gen := workload.NewGenerator(workload.Config{
		Seed: DefaultSeed + 17, Vocabulary: 24, Objects: 8,
	})
	i := 0
	return ingest.FromSeq(func(yield func(ingest.Scene, error) bool) {
		for ; i < n; i++ {
			s := ingest.Scene{ID: fmt.Sprintf("img%08d", i), Image: gen.Scene()}
			if !yield(s, nil) {
				return
			}
		}
	})
}

// encodeStream pipes the scene stream through an on-the-wire encoding
// (NDJSON or the CSV dialect), so the measured path includes the decode
// cost a real file import pays. The writer goroutine encodes scenes as
// the reader drains the pipe — nothing is materialised.
func encodeStream(n int, format string) ingest.Reader {
	pr, pw := io.Pipe()
	go func() {
		src := sceneSeq(n)
		switch format {
		case "ndjson":
			enc := json.NewEncoder(pw)
			for {
				s, err := src.Next()
				if err != nil {
					pw.CloseWithError(nil)
					return
				}
				if err := enc.Encode(s); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
		case "csv":
			for {
				s, err := src.Next()
				if err != nil {
					pw.CloseWithError(nil)
					return
				}
				_, err = fmt.Fprintf(pw, "%s,%s,%d,%d,%q\n", s.ID, s.Name,
					s.Image.XMax, s.Image.YMax, ingest.CSVObjects(s.Image))
				if err != nil {
					pw.CloseWithError(err)
					return
				}
			}
		}
	}()
	if format == "csv" {
		return ingest.CSV(pr)
	}
	return ingest.NDJSON(pr)
}

// IngestScaling runs experiment E17: sustained load rate and peak heap
// for each loading strategy at each corpus size. chunks sweeps the
// importer's scenes-per-chunk bound on the in-memory source (0 keeps the
// default); the format rows use the default chunking.
func IngestScaling(sizes, chunks []int) (*Table, error) {
	t := &Table{
		ID: "E17",
		Caption: "streaming ingest scaling: legacy chunk-looped BulkInsert vs the " +
			"chunked importer across source format and chunk size",
		Header: []string{"images", "source", "chunk", "s", "rows/s", "peak MiB", "vs legacy"},
	}
	ctx := context.Background()

	type point struct {
		source string
		chunk  int // importer scenes-per-chunk bound; 0 = default
		legacy bool
	}
	for _, n := range sizes {
		points := []point{{source: "legacy-bulk", chunk: legacyChunk, legacy: true}}
		for _, c := range chunks {
			points = append(points, point{source: "stream", chunk: c})
		}
		points = append(points, point{source: "ndjson"}, point{source: "csv"})

		var legacyRate float64
		for _, p := range points {
			s, dir, err := ingestStore()
			if err != nil {
				return nil, fmt.Errorf("E17: %w", err)
			}
			sampler := startHeapSampler()
			start := time.Now()
			switch {
			case p.legacy:
				err = legacyBulkLoad(ctx, s, n)
			case p.source == "stream":
				_, err = s.Import(ctx, sceneSeq(n), imagedb.ImportOptions{ChunkScenes: p.chunk})
			default:
				_, err = s.Import(ctx, encodeStream(n, p.source), imagedb.ImportOptions{})
			}
			elapsed := time.Since(start)
			peak := sampler.Stop()
			loaded := s.Len()
			s.Close()
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("E17 %s n=%d: %w", p.source, n, err)
			}
			if loaded != n {
				return nil, fmt.Errorf("E17 %s n=%d: loaded %d", p.source, n, loaded)
			}
			rate := float64(n) / elapsed.Seconds()
			if p.legacy {
				legacyRate = rate
			}
			chunkCell := "default"
			if p.chunk > 0 {
				chunkCell = fmt.Sprintf("%d", p.chunk)
			}
			t.AddRow(
				fmt.Sprintf("%d", n), p.source, chunkCell,
				fmt.Sprintf("%.2f", elapsed.Seconds()),
				fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.1f", peak),
				fmt.Sprintf("%.2fx", rate/legacyRate),
			)
		}
	}
	return t, nil
}

// legacyBulkLoad is the E17 baseline: the loading idiom this engine's
// earlier tooling used — materialise fixed-size batches and BulkInsert
// each, paying one WAL record, one fsync and one full COW publish per
// small chunk.
func legacyBulkLoad(ctx context.Context, s *imagedb.DB, n int) error {
	src := sceneSeq(n)
	items := make([]imagedb.BulkItem, 0, legacyChunk)
	flush := func() error {
		if len(items) == 0 {
			return nil
		}
		if err := s.BulkInsert(ctx, items, 0); err != nil {
			return err
		}
		items = items[:0]
		return nil
	}
	for {
		scene, err := src.Next()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return err
		}
		items = append(items, imagedb.BulkItem{ID: scene.ID, Name: scene.Name, Image: scene.Image})
		if len(items) == legacyChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}
