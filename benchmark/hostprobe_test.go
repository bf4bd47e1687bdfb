package main

import (
	"testing"
	"time"
)

func TestHostProbeFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &hostProbe{}
	// One sample every 50 ms: the reference time for the first second,
	// half as slow again for the next, 2.2 times as slow for the third; one
	// sample in each second was interrupted and reads ten times too long.
	for i := 0; i < 60; i++ {
		us := probeRefUS
		if i >= 40 {
			us *= 2.2
		} else if i >= 20 {
			us *= 1.5
		}
		if i%20 == 7 {
			us *= 10
		}
		p.at = append(p.at, t0.Add(time.Duration(i)*probeEvery))
		p.us = append(p.us, us)
	}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"quiet second", at(0), at(990), 1},
		{"slow second", at(1000), at(1990), 1.5 * 1.5},
		{"shorter than the sampling gap: nearest samples", at(1510), at(1520), 1.5 * 1.5},
		{"slower than the fitted range: capped", at(2000), at(2990), maxSlowdown * maxSlowdown},
		{"before the first sample by more than the widening: as measured", at(-5000), at(-4000), 1},
	} {
		if got := p.factor(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: factor %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := (*hostProbe)(nil).factor(at(0), at(990)); got != 1 {
		t.Errorf("no probe: factor %v, want 1 (as measured)", got)
	}
}

// A closed loop's rate is scaled up by the host factor of each slice;
// with no probe it is the plain count per second.
func TestSteadyRateAtReferenceSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	dur := 6 * time.Second
	var w window
	w.start = t0
	for i := 0; i < 600; i++ { // 100 per second
		w.results = append(w.results, result{recv: t0.Add(time.Duration(i) * 10 * time.Millisecond)})
	}
	if got := w.steadyRate(dur, nil); got != 100 {
		t.Errorf("as measured: %v ops/s, want 100", got)
	}
	p := &hostProbe{}
	for i := 0; i < 120; i++ {
		p.at = append(p.at, t0.Add(time.Duration(i)*probeEvery))
		p.us = append(p.us, 1.25*probeRefUS)
	}
	if got := w.steadyRate(dur, p); got != 156.25 {
		t.Errorf("probe a quarter slower than its reference: %v ops/s, want 100 × 1.25²", got)
	}
}

// A latency runs from the due instant or, for mixed_open, from the
// send; failed operations stay out of both samples.
func TestLatenciesFromDueAndFromSend(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w := window{results: []result{
		{req: &request{kind: opGet}, due: at(0), sent: at(30), recv: at(40)},
		{req: &request{kind: opInsert}, due: at(10), sent: at(12), recv: at(15)},
		{req: &request{kind: opGet}, due: at(20), sent: at(20), recv: at(99), err: "timed out"},
	}}
	reads, writes := latencies(w, nil, false)
	if len(reads) != 1 || reads[0] != 40 || len(writes) != 1 || writes[0] != 5 {
		t.Errorf("from due: reads %v writes %v, want [40] [5]", reads, writes)
	}
	reads, writes = latencies(w, nil, true)
	if len(reads) != 1 || reads[0] != 10 || len(writes) != 1 || writes[0] != 3 {
		t.Errorf("from the send: reads %v writes %v, want [10] [3]", reads, writes)
	}
}
