package imagedb

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bestring/internal/core"
	"bestring/internal/wal"
)

// BulkItem is one image in a bulk insertion — the same value the WAL
// logs for it.
type BulkItem = wal.BulkItem

// prepareBulk is the batch arm of prepare: id validation (non-empty,
// unique within the batch), parallel conversion, and image cloning. It
// returns the stored entries ready to install (sequence numbers
// unassigned, signatures and codes derived against the label
// dictionary), so a batch is fully validated before its WAL record is
// written — live, replayed or replicated alike. The entries are packed
// into one columnar arena slab rather than boxed individually (arena.go).
func (db *DB) prepareBulk(ctx context.Context, items []BulkItem, parallelism int) ([]*stored, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	seen := make(map[string]bool, len(items))
	for i, it := range items {
		if it.ID == "" {
			return nil, fmt.Errorf("bulk insert item %d: %w", i, ErrEmptyID)
		}
		if seen[it.ID] {
			return nil, fmt.Errorf("bulk insert item %d (%q): %w", i, it.ID, ErrDuplicate)
		}
		seen[it.ID] = true
	}

	converted := make([]core.BEString, len(items))
	errs := make([]error, len(items))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				converted[i], errs[i] = core.Convert(items[i].Image)
			}
		}()
	}
	var cancelled error
feed:
	for i := range items {
		select {
		case jobs <- i:
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if cancelled != nil {
		return nil, fmt.Errorf("bulk insert: %w", cancelled)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bulk insert item %d (%q): %w", i, items[i].ID, err)
		}
	}

	// Build the stored entries (including the image clones, their symbol
	// signatures and coded axes) before any lock is taken; only map
	// installs and index registration remain for the critical section.
	packed := make([]arenaItem, len(items))
	for i, it := range items {
		packed[i] = arenaItem{id: it.ID, name: it.Name, img: it.Image, be: converted[i]}
	}
	return buildArena(packed, db.labelDict()).pointers(), nil
}
