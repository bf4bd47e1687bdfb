package imagedb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bestring/internal/core"
	"bestring/internal/workload"
)

// BenchmarkRankedScan20k is the in-process twin of the harness's
// ranked_scan workload (benchmark/README.md): an unfiltered top-10 over
// 20 000 bulk-loaded 8-object scenes (vocabulary 64) from two concurrent
// callers, every query a distinct 5-of-8 subset of a corpus scene with
// ±3 jitter. The query ring is longer than the 300 iterations the
// recorded runs use, so — as on the harness — every query is the first
// sighting of its key and bypasses the scorer cache (before the
// doorkeeper: long enough that a query's scores were evicted before it
// came round again). EXPERIMENTS.md E19 and E20 record parent vs change.
func BenchmarkRankedScan20k(b *testing.B) {
	const scenes, queries, callers = 20000, 1024, 2
	gen := workload.NewGenerator(workload.Config{Seed: 1, Width: 100, Height: 100, Objects: 8, Vocabulary: 64})
	corpus := gen.Dataset(scenes)
	items := make([]BulkItem, scenes)
	for i, img := range corpus {
		items[i] = BulkItem{ID: fmt.Sprintf("s%07d", i), Image: img}
	}
	db := New()
	if err := db.BulkInsert(context.Background(), items, 0); err != nil {
		b.Fatal(err)
	}
	qs := make([]core.Image, queries)
	for i := range qs {
		qs[i] = gen.JitterQuery(gen.SubsetQuery(corpus[(i*19)%scenes], 5), 3)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				page, err := db.Query(context.Background(), NewQuery(qs[i%queries]), WithK(10))
				if err != nil || len(page.Hits) != 10 {
					b.Errorf("query %d: %d hits, err %v", i, len(page.Hits), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
