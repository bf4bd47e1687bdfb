package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, exactly
// one `# HELP`/`# TYPE` pair per family, series sorted by label set.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)

	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

func (f *family) write(w *bufio.Writer) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]*seriesEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, f.series[k])
	}
	vecFn, vecLabel := f.vecFn, f.vecLabel
	f.mu.Unlock()

	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')

	if vecFn != nil {
		samples := vecFn()
		sort.Slice(samples, func(i, j int) bool { return samples[i].Label < samples[j].Label })
		for _, s := range samples {
			w.WriteString(f.name)
			w.WriteString(renderLabels([]string{vecLabel, s.Label}))
			w.WriteByte(' ')
			w.WriteString(formatFloat(s.Value))
			w.WriteByte('\n')
		}
		return
	}

	for _, s := range entries {
		switch {
		case s.c != nil:
			writeSample(w, f.name, s.labels, strconv.FormatUint(s.c.Value(), 10))
		case s.cfn != nil:
			writeSample(w, f.name, s.labels, formatFloat(s.cfn()))
		case s.g != nil:
			writeSample(w, f.name, s.labels, formatFloat(s.g.Value()))
		case s.gfn != nil:
			writeSample(w, f.name, s.labels, formatFloat(s.gfn()))
		case s.h != nil:
			writeHistogram(w, f.name, s.labels, s.h)
		}
	}
}

func writeSample(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// writeHistogram emits the _bucket/_sum/_count triplet. The +Inf
// bucket equals _count exactly (both come from the same per-stripe
// totals), so the exposition is always internally consistent.
func writeHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	cum, count, sum := h.snapshot()
	for i, bound := range h.bounds {
		w.WriteString(name)
		w.WriteString("_bucket")
		w.WriteString(mergeLE(labels, formatFloat(bound)))
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(cum[i], 10))
		w.WriteByte('\n')
	}
	w.WriteString(name)
	w.WriteString("_bucket")
	w.WriteString(mergeLE(labels, "+Inf"))
	w.WriteByte(' ')
	w.WriteString(strconv.FormatUint(count, 10))
	w.WriteByte('\n')

	writeSample(w, name+"_sum", labels, formatFloat(sum))
	writeSample(w, name+"_count", labels, strconv.FormatUint(count, 10))
}

// mergeLE appends le="bound" to an existing rendered label set.
func mergeLE(labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + le + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
