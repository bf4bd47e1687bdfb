package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// doer sends one request due at the given time (zero: now).
type doer func(ctx context.Context, req *request, due time.Time) result

// window is what one load loop produced.
type window struct {
	results []result // ordered by completion time
	start   time.Time
	elapsed time.Duration
	// Open loop only: how late the generator itself released arrivals.
	late   int
	maxLag time.Duration
}

// closedLoop runs one client per stream: each sends its next request
// only after the previous answer, so a slower server receives less
// load. A client stops after dur (when positive) or when its stream
// ends (next returns nil).
func closedLoop(ctx context.Context, do []doer, streams []stream, dur time.Duration) window {
	start := time.Now()
	perClient := make([][]result, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil && (dur <= 0 || time.Since(start) < dur) {
				req := streams[i].next()
				if req == nil {
					return
				}
				perClient[i] = append(perClient[i], do[i](ctx, req, time.Time{}))
			}
		}(i)
	}
	wg.Wait()
	w := window{start: start, elapsed: time.Since(start)}
	w.collect(perClient)
	return w
}

// collect merges the per-connection results in completion order.
func (w *window) collect(perConn [][]result) {
	for _, rs := range perConn {
		w.results = append(w.results, rs...)
	}
	sort.SliceStable(w.results, func(i, j int) bool { return w.results[i].recv.Before(w.results[j].recv) })
}

// arrival is one scheduled open-loop request.
type arrival struct {
	req *request
	due time.Duration // offset from the window start
}

// schedule draws Poisson arrivals at rate per second over dur: seeded
// exponential gaps, independent of how the server responds.
func schedule(s stream, rate float64, dur time.Duration, seed int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, arrival{req: s.next(), due: t})
	}
}

// lateAfter is how far behind its due time the generator may release an
// arrival before the arrival counts as late. The generator shares two
// cores with a server that uses both for one search, so a wake-up can
// wait a scheduler slice; the lag is inside the reported latency either
// way, because latency runs from the due time.
const lateAfter = 5 * time.Millisecond

// openLoop releases each arrival at its due time whatever the server is
// doing, onto as many connections as there are doers. An arrival that
// finds every connection busy waits, and that wait is part of its
// latency: the doer is handed the due time, not the send time.
func openLoop(ctx context.Context, clk clock, do []doer, arrivals []arrival) window {
	start := clk.Now()
	// Buffered for every send, so the generator never blocks on a busy
	// connection and its lag measures the generator alone.
	work := make(chan arrival, len(arrivals))
	perConn := make([][]result, len(do))
	var wg sync.WaitGroup
	for i := range do {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for a := range work {
				perConn[i] = append(perConn[i], do[i](ctx, a.req, start.Add(a.due)))
			}
		}(i)
	}
	w := window{start: start}
	for _, a := range arrivals {
		if ctx.Err() != nil {
			break
		}
		if wait := a.due - clk.Now().Sub(start); wait > 0 {
			clk.Sleep(wait)
		}
		lag := clk.Now().Sub(start) - a.due
		if lag > lateAfter {
			w.late++
		}
		w.maxLag = max(w.maxLag, lag)
		work <- a
	}
	close(work)
	wg.Wait()
	w.elapsed = clk.Now().Sub(start)
	w.collect(perConn)
	return w
}
