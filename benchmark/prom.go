package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// samples is one /metrics scrape: series text ("name" or
// `name{label="v"}`, exactly as the server prints it) to value.
// Bucket series are dropped; the layer budget needs only _sum/_count
// and plain counters.
type samples map[string]float64

// parseProm reads the Prometheus text exposition format.
func parseProm(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		series := line[:cut]
		if strings.Contains(series, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// sub returns after − before per series; a series absent before counts
// from zero (the server registers some series on first use).
func (after samples) sub(before samples) samples {
	out := make(samples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// hist returns a histogram's sum and count. series is the family name
// with optional labels, e.g. `bestring_http_request_seconds{route="/api/search"}`.
func (s samples) hist(series string) (sum, count float64) {
	name, labels := series, ""
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name, labels = series[:i], series[i:]
	}
	return s[name+"_sum"+labels], s[name+"_count"+labels]
}

// histMeanMS returns a histogram-of-seconds' mean in milliseconds.
func (s samples) histMeanMS(series string) float64 {
	sum, count := s.hist(series)
	return ratio(sum*1e3, count)
}
