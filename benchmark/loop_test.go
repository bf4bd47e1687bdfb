package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when someone sleeps on it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// One connection, three arrivals 10 ms apart, 300 ms of service each:
// the second and third find the connection busy. Their latency must run
// from the instant they were due, so it includes the wait. Only the
// generator moves the fake clock; the connection keeps its own account
// of when it is free, so the outcome does not depend on which goroutine
// the scheduler runs first.
func TestOpenLoopStampsLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	const service = 300 * time.Millisecond
	var busyUntil time.Time // touched by the single connection's goroutine only
	do := func(_ context.Context, req *request, due time.Time) result {
		sent := due
		if busyUntil.After(sent) {
			sent = busyUntil
		}
		busyUntil = sent.Add(service)
		return result{req: req, due: due, encodeStart: sent, sent: sent, recv: busyUntil, done: busyUntil}
	}
	arrivals := []arrival{
		{&request{kind: opGet, id: "a"}, 100 * time.Millisecond},
		{&request{kind: opGet, id: "b"}, 110 * time.Millisecond},
		{&request{kind: opGet, id: "c"}, 120 * time.Millisecond},
	}
	w := openLoop(context.Background(), clk, []doer{do}, arrivals)
	if len(w.results) != len(arrivals) {
		t.Fatalf("%d results, want %d", len(w.results), len(arrivals))
	}
	// Service 300 ms back to back from 100 ms: done at 400, 700, 1000 ms.
	for i, wantMS := range []float64{300, 590, 880} {
		r := w.results[i]
		if want := start.Add(arrivals[i].due); !r.due.Equal(want) {
			t.Errorf("arrival %d stamped due %v, want %v", i, r.due.Sub(start), arrivals[i].due)
		}
		if got := r.latencyMS(); got != wantMS {
			t.Errorf("arrival %d latency %v ms, want %v ms from its due time", i, got, wantMS)
		}
	}
	if w.late != 0 || w.maxLag != 0 {
		t.Errorf("generator reported %d late releases, max lag %v, on a clock that never slips", w.late, w.maxLag)
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	mk := func(seed int64) []arrival {
		return schedule(&listStream{reqs: make([]*request, 100000)}, 100, 10*time.Second, seed)
	}
	a, b := mk(1), mk(1)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i].due != b[i].due {
			t.Fatalf("same seed, arrival %d due at %v and %v", i, a[i].due, b[i].due)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Errorf("%d arrivals in 10 s at 100/s", n)
	}
	if c := mk(2); len(c) == len(a) && c[0].due == a[0].due {
		t.Error("seeds 1 and 2 give the same schedule")
	}
}

func TestClosedLoopStopsAtStreamEnd(t *testing.T) {
	do := func(_ context.Context, req *request, _ time.Time) result { return result{req: req} }
	streams := []stream{
		&listStream{reqs: []*request{{id: "a"}, {id: "b"}, {id: "c"}}},
		&listStream{reqs: []*request{{id: "d"}}},
	}
	w := closedLoop(context.Background(), []doer{do, do}, streams, 0)
	if len(w.results) != 4 {
		t.Errorf("%d results, want 4", len(w.results))
	}
}
