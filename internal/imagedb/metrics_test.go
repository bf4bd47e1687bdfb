package imagedb

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bestring/internal/core"
	"bestring/internal/obs"
)

// chopLastSegment cuts n bytes off the highest-named WAL segment,
// simulating a torn final write.
func chopLastSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	path := filepath.Join(dir, segs[len(segs)-1])
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// Every executed query must fill the stage timing fields and total;
// the timers chain, so the stages cannot exceed the total.
func TestStageTimingsPopulated(t *testing.T) {
	db := New()
	for i := 0; i < 50; i++ {
		img := core.NewImage(16, 16,
			core.Object{Label: "A", Box: core.NewRect(1, 1, 3, 3)},
			core.Object{Label: "B", Box: core.NewRect(8, 8, 10, 10)})
		if err := db.Insert(fmt.Sprintf("img%03d", i), "", img); err != nil {
			t.Fatal(err)
		}
	}
	probe := core.NewImage(16, 16,
		core.Object{Label: "A", Box: core.NewRect(1, 1, 3, 3)},
		core.Object{Label: "B", Box: core.NewRect(8, 8, 10, 10)})
	page, err := db.Query(context.Background(), NewQuery(probe), WithK(5), Where("A left-of B"))
	if err != nil {
		t.Fatal(err)
	}
	sc := page.Stages
	if sc == nil {
		t.Fatal("no stage counts")
	}
	if sc.TotalNanos <= 0 {
		t.Fatalf("TotalNanos = %d, want > 0", sc.TotalNanos)
	}
	stageSum := sc.IndexNanos + sc.RegionNanos + sc.FilterNanos + sc.RankNanos
	if stageSum <= 0 || stageSum > sc.TotalNanos {
		t.Fatalf("stage sum %d out of range (total %d)", stageSum, sc.TotalNanos)
	}

	// And the trace riding the context must have received stage spans.
	tr := obs.NewTrace("t1")
	if _, err := db.Query(obs.WithTrace(context.Background(), tr),
		NewQuery(probe), WithK(5), Where("A left-of B")); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"stage.index", "stage.region", "stage.filter", "stage.rank"} {
		if !names[want] {
			t.Fatalf("trace missing span %q (got %v)", want, tr.Spans())
		}
	}
}

// DB.EnableMetrics must feed query counters and stage histograms.
func TestDBMetricsFeed(t *testing.T) {
	db := New()
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	img := core.NewImage(8, 8, core.Object{Label: "A", Box: core.NewRect(0, 0, 2, 2)})
	if err := db.Insert("a", "", img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := search(context.Background(), db, img, WithK(5)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"bestring_query_total 3",
		`bestring_query_stage_seconds_count{stage="rank"} 3`,
		"bestring_store_images 1",
		"bestring_query_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// scrapeValues renders reg and maps each sample's series key (name plus
// rendered labels) to its value.
func scrapeValues(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[key] = v
	}
	return out
}

// Stats().Search, StoreStats().Commit and /metrics read one set of
// counters, so they agree even when the registry is attached after the
// first writes and queries — the order cmd/server uses (seed, then
// EnableMetrics). Each value is also pinned, so a source that counts
// nothing cannot agree vacuously.
func TestStatsAgreeWithRegistry(t *testing.T) {
	db := New()
	ctx := context.Background()
	if err := db.BulkInsert(ctx, []BulkItem{
		{ID: "b0", Image: storeImage(0)}, {ID: "b1", Image: storeImage(1)},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := search(ctx, db, storeImage(0), WithK(3)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.EnableMetrics(reg)
	if err := db.Insert("i0", "", storeImage(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := search(ctx, db, storeImage(2), WithK(3)); err != nil {
		t.Fatal(err)
	}

	got := scrapeValues(t, reg)
	commit := db.StoreStats().Commit
	if commit.Groups != 2 || commit.Mutations != 2 || commit.Largest != 1 {
		t.Fatalf("commit stats = %+v, want groups 2, mutations 2, largest 1", commit)
	}
	for key, want := range map[string]uint64{
		"bestring_commit_groups_total":     commit.Groups,
		"bestring_commit_batch_size_count": commit.Groups,
		"bestring_commit_mutations_total":  commit.Mutations,
		"bestring_commit_batch_size_sum":   commit.Mutations,
		"bestring_commit_rejected_total":   commit.Rejected,
	} {
		if got[key] != float64(want) {
			t.Errorf("%s = %v, StoreStats says %d", key, got[key], want)
		}
	}
	search := db.Stats().Search
	if search.Queries != 2 || search.Narrowed == 0 || search.Evaluated == 0 {
		t.Fatalf("search stats = %+v, want 2 queries with work", search)
	}
	for key, want := range map[string]uint64{
		"bestring_query_total":                               search.Queries,
		`bestring_query_candidates_total{stage="narrowed"}`:  search.Narrowed,
		`bestring_query_candidates_total{stage="bounded"}`:   search.Bounded,
		`bestring_query_candidates_total{stage="evaluated"}`: search.Evaluated,
		`bestring_query_candidates_total{stage="pruned"}`:    search.Pruned,
		"bestring_scorer_cache_hits_total":                   search.CacheHits,
		"bestring_scorer_cache_misses_total":                 search.CacheMisses,
	} {
		if got[key] != float64(want) {
			t.Errorf("%s = %v, Stats says %d", key, got[key], want)
		}
	}
}

// The satellite-6 fix: commit counters and search counters must never
// be observable in a torn combination. Hammer StoreStats/Stats while
// grouped writers commit; run under -race in CI.
func TestStatsCoherentUnderConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.StoreStats()
				if st.Commit.Mutations < st.Commit.Groups {
					t.Errorf("torn read: mutations %d < groups %d", st.Commit.Mutations, st.Commit.Groups)
					return
				}
				if st.Commit.Largest > st.Commit.Mutations {
					t.Errorf("torn read: largest %d > mutations %d", st.Commit.Largest, st.Commit.Mutations)
					return
				}
				ss := s.Stats().Search
				if ss.Evaluated+ss.Pruned > 0 && ss.Queries == 0 {
					t.Errorf("torn read: work counted before any query: %+v", ss)
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Insert(id, "", storeImage(w*100+i)); err != nil {
					t.Errorf("insert %s: %v", id, err)
					return
				}
				if i%8 == 0 {
					img := storeImage(w*100 + i)
					if _, err := search(context.Background(), s, img, WithK(3)); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.StoreStats()
	if st.Commit.Mutations != 320 {
		t.Fatalf("mutations = %d, want 320", st.Commit.Mutations)
	}
	if st.Commit.Groups == 0 || st.Commit.Groups > 320 {
		t.Fatalf("groups = %d", st.Commit.Groups)
	}
}

// EnableMetrics on a durable DB must wire the whole engine: WAL, commit
// histograms, LSN gauge vec, torn-tail counter.
func TestStoreMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.EnableMetrics(reg)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Insert(fmt.Sprintf("m%d", i), "", storeImage(i)); err != nil {
				t.Errorf("insert: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if _, err := search(context.Background(), s, storeImage(0), WithK(3)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE bestring_wal_fsync_seconds histogram",
		"# TYPE bestring_commit_batch_size histogram",
		"bestring_commit_mutations_total 6",
		`bestring_store_lsn{kind="durable"}`,
		`bestring_store_lsn{kind="visible"}`,
		"bestring_wal_torn_tail_recoveries_total 0",
		"bestring_commit_queue_wait_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Queue waits were observed for the grouped inserts.
	if s.metrics.batchSize.Count() == 0 {
		t.Fatal("no commit groups observed")
	}
}

// A crash-torn tail must surface in the recovery counter after reopen.
func TestTornTailRecoveryCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Insert(fmt.Sprintf("t%d", i), "", storeImage(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	chopLastSegment(t, dir, 5)

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.recoveredTornTails != 1 || s2.recoveredTornBytes <= 0 {
		t.Fatalf("torn recovery not counted: tails=%d bytes=%d",
			s2.recoveredTornTails, s2.recoveredTornBytes)
	}
	reg := obs.NewRegistry()
	s2.EnableMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bestring_wal_torn_tail_recoveries_total 1") {
		t.Fatal("torn-tail recovery not exposed")
	}
}

// Metrics can be exposed while traffic is in flight (the instruments
// already count; EnableMetrics only includes them); run under -race.
func TestEnableMetricsMidTraffic(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{Fsync: FsyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Insert(fmt.Sprintf("mid%d", i), "", storeImage(i))
			i++
		}
	}()
	time.Sleep(5 * time.Millisecond)
	reg := obs.NewRegistry()
	s.EnableMetrics(reg)
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}
