package main

import (
	"bytes"
	"fmt"
	"testing"

	"bestring/internal/query"
)

var workloadNames = []string{"ranked_scan", "filtered_mix", "write_churn", "mixed_open"}

// render is the bytes a request puts on the wire.
func render(r *request) string {
	return fmt.Sprintf("%s %s %s", r.method(), r.path(), r.body(false))
}

// firstRequests renders the first n requests of every client stream of
// one phase.
func firstRequests(workload string, seed int64, phase, n int) []string {
	tr := newTraffic(workload, newCorpus(seed, 900))
	clients := maxClients
	if workload == "mixed_open" {
		clients = 1
	}
	var out []string
	for cl := 0; cl < clients; cl++ {
		s := tr.stream(phase, cl)
		for i := 0; i < n; i++ {
			out = append(out, render(s.next()))
		}
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	if !bytes.Equal(newCorpus(7, 200).ndjson(), newCorpus(7, 200).ndjson()) {
		t.Fatal("same seed produced different corpora")
	}
	if bytes.Equal(newCorpus(7, 200).ndjson(), newCorpus(8, 200).ndjson()) {
		t.Fatal("different seeds produced the same corpus")
	}
	for _, w := range workloadNames {
		a, b := firstRequests(w, 7, phaseMeasure, 200), firstRequests(w, 7, phaseMeasure, 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two generations of seed 7:\n%s\n%s", w, i, a[i], b[i])
			}
		}
		c := firstRequests(w, 8, phaseMeasure, 200)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w)
		}
	}
}

// A request outside the hot set (which every phase shares on purpose)
// must never occur in two phases, or in two clients of one phase.
func TestPhasesAndClientsAreDisjoint(t *testing.T) {
	for _, w := range []string{"ranked_scan", "filtered_mix", "mixed_open"} {
		tr := newTraffic(w, newCorpus(3, 900))
		hot := map[string]bool{}
		for _, r := range tr.hot {
			hot[render(r)] = true
		}
		seen := map[string]string{}
		clients := maxClients
		if w == "mixed_open" {
			clients = 1
		}
		for phase := 0; phase < numPhases; phase++ {
			for cl := 0; cl < clients; cl++ {
				s := tr.stream(phase, cl)
				where := fmt.Sprintf("phase %d client %d", phase, cl)
				for i := 0; i < 150; i++ {
					r := s.next()
					key := render(r)
					if !r.kind.isSearch() || hot[key] {
						continue
					}
					if prev, dup := seen[key]; dup && prev != where {
						t.Fatalf("%s: %s sent in %s and %s", w, key, prev, where)
					}
					seen[key] = where
				}
			}
		}
	}
}

func TestRankedScanQueriesAreDistinct(t *testing.T) {
	s := newTraffic("ranked_scan", newCorpus(5, 1800)).stream(phaseMeasure, 0)
	seen := map[string]bool{}
	exact := 0
	for i := 0; i < 200; i++ { // the client's source class holds exactly 200 scenes
		r := s.next()
		if key := render(r); seen[key] {
			t.Fatalf("query %d repeats: %s", i, key)
		} else {
			seen[key] = true
		}
		if r.exact {
			exact++
		} else if n := len(r.search.Image.Objects); n != queryKeep {
			t.Fatalf("partial query keeps %d objects, want %d", n, queryKeep)
		}
	}
	if exact != 200/exactEvery {
		t.Errorf("%d exact copies in 200 queries, want %d", exact, 200/exactEvery)
	}
}

// Every generated clause parses and holds on some scene (its source),
// so no filtered search is empty by construction.
func TestFilteredMixClausesParse(t *testing.T) {
	s := newTraffic("filtered_mix", newCorpus(2, 900)).stream(phaseMeasure, 0)
	kinds := map[opKind]int{}
	for i := 0; i < 2000; i++ {
		r := s.next()
		kinds[r.kind]++
		if r.kind.isSearch() && r.search.DSL != "" {
			if _, err := query.Parse(r.search.DSL); err != nil {
				t.Fatalf("clause %q: %v", r.search.DSL, err)
			}
		}
	}
	for _, k := range []opKind{opRankedDSL, opRankedRegion, opMatchDSL, opPrefilter, opGet} {
		if kinds[k] == 0 {
			t.Errorf("2000 requests hold no %s", k)
		}
	}
	if got := float64(kinds[opGet]) / 2000; got < 0.15 || got > 0.25 {
		t.Errorf("GET share %.3f, want about 0.20", got)
	}
}

func TestWriterDeletesOnlyItsOwnLiveIDs(t *testing.T) {
	for _, lag := range []int{0, 64} {
		w := newWriter(1, "w", 0, lag)
		insertedAt := map[string]int{}
		deletes := 0
		for pos := 1; pos <= 3000; pos++ {
			r := w.next()
			switch r.kind {
			case opInsert:
				if _, dup := insertedAt[r.id]; dup {
					t.Fatalf("id %s inserted twice", r.id)
				}
				insertedAt[r.id] = pos
			case opDelete:
				deletes++
				at, ok := insertedAt[r.id]
				if !ok {
					t.Fatalf("delete of %s, which is not live", r.id)
				}
				if pos-at < lag {
					t.Fatalf("lag %d: %s deleted %d requests after its insert", lag, r.id, pos-at)
				}
				delete(insertedAt, r.id)
			}
		}
		if share := float64(deletes) / 3000; share < 0.25 || share > 0.35 {
			t.Errorf("lag %d: delete share %.3f, want about 0.30", lag, share)
		}
	}
}

func TestExpectedWritesIgnoresResultOrder(t *testing.T) {
	ins := result{req: &request{kind: opInsert, id: "a"}}
	del := result{req: &request{kind: opDelete, id: "a"}}
	lost := result{req: &request{kind: opInsert, id: "b"}, err: "timeout"}
	for _, order := range [][]result{{ins, del, lost}, {del, ins, lost}} {
		got := map[string]bool{}
		expectedWrites(got, order)
		if exists, ok := got["a"]; !ok || exists {
			t.Errorf("acked delete of a: expected state %v (known %v), want gone", exists, ok)
		}
		if _, ok := got["b"]; ok {
			t.Error("an unacknowledged insert was promised")
		}
	}
}
