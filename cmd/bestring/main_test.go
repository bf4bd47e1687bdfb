package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bestring"
)

// writeFig1 materialises the Figure 1 image as a JSON file.
func writeFig1(t *testing.T) string {
	t.Helper()
	data, err := json.Marshal(bestring.Figure1Image())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestConvertCommand(t *testing.T) {
	img := writeFig1(t)
	if err := run([]string{"convert", "-img", img}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	if err := run([]string{"convert", "-img", img + ".missing"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestScoreCommand(t *testing.T) {
	img := writeFig1(t)
	if err := run([]string{"score", "-query", img, "-db", img, "-explain"}); err != nil {
		t.Fatalf("score: %v", err)
	}
	if err := run([]string{"score", "-query", img, "-db", img, "-invariant"}); err != nil {
		t.Fatalf("score -invariant: %v", err)
	}
	if err := run([]string{"score", "-query", img}); err == nil {
		t.Error("missing -db accepted")
	}
}

func TestMkdbAndSearchCommands(t *testing.T) {
	dir := t.TempDir()
	scenesPath := filepath.Join(dir, "scenes.ndjson")
	if err := run([]string{"mkdb", "-out", scenesPath, "-count", "10", "-seed", "2"}); err != nil {
		t.Fatalf("mkdb: %v", err)
	}
	img := writeFig1(t)
	for _, method := range []string{"be", "invariant", "type0", "type1", "type2"} {
		if err := run([]string{"search", "-scenes", scenesPath, "-query", img, "-k", "3", "-method", method}); err != nil {
			t.Fatalf("search -method %s: %v", method, err)
		}
	}
	if err := run([]string{"search", "-scenes", scenesPath, "-query", img, "-method", "cosine"}); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run([]string{"search", "-query", img}); err == nil {
		t.Error("missing -scenes accepted")
	}
	if err := run([]string{"search", "-scenes", scenesPath + ".missing", "-query", img}); err == nil {
		t.Error("missing scene file accepted")
	}
}

func TestTransformCommand(t *testing.T) {
	img := writeFig1(t)
	for _, tr := range []string{"rot90", "rot180", "rot270", "flip-x", "flip-y", "flip-diag", "flip-antidiag"} {
		if err := run([]string{"transform", "-img", img, "-t", tr}); err != nil {
			t.Fatalf("transform -t %s: %v", tr, err)
		}
	}
	if err := run([]string{"transform", "-img", img, "-t", "rot45"}); err == nil {
		t.Error("unknown transform accepted")
	}
}

func TestRenderAndASCIICommands(t *testing.T) {
	img := writeFig1(t)
	out := filepath.Join(t.TempDir(), "fig1.png")
	if err := run([]string{"render", "-img", img, "-out", out}); err != nil {
		t.Fatalf("render: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil || len(data) < 8 || string(data[1:4]) != "PNG" {
		t.Errorf("render output is not a PNG (%v, %d bytes)", err, len(data))
	}
	if err := run([]string{"ascii", "-img", img, "-cols", "20", "-rows", "10"}); err != nil {
		t.Fatalf("ascii: %v", err)
	}
}

func TestLoadImageRejectsBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadImage(path); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := os.WriteFile(path, []byte(`{"xmax":5,"ymax":5,"objects":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadImage(path); err == nil {
		t.Error("invalid image accepted")
	}
}

// TestSearchComposedFlags drives the composable query surface: DSL and
// region filters on top of (or instead of) ranked search.
func TestSearchComposedFlags(t *testing.T) {
	dir := t.TempDir()
	scenesPath := filepath.Join(dir, "scenes.ndjson")
	fig := bestring.Figure1Image()
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	for _, sc := range []bestring.Scene{
		{ID: "fig1", Name: "figure one", Image: fig},
		{ID: "fig1-rot", Name: "rotated", Image: bestring.ApplyToImage(fig, bestring.Rot90)},
	} {
		if err := enc.Encode(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(scenesPath, ndjson.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	img := writeFig1(t)

	for _, args := range [][]string{
		{"search", "-scenes", scenesPath, "-query", img, "-dsl", "A left-of B", "-k", "5"},
		{"search", "-scenes", scenesPath, "-query", img, "-region", "0,0,6,6", "-region-label", "A"},
		{"search", "-scenes", scenesPath, "-dsl", "A left-of B"},
		{"search", "-scenes", scenesPath, "-region", "0,0,6,6"},
		{"search", "-scenes", scenesPath, "-query", img, "-min-score", "0.5", "-offset", "1"},
		{"search", "-scenes", scenesPath, "-query", img, "-method", "symbols"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"search", "-scenes", scenesPath}, // no query component at all
		{"search", "-scenes", scenesPath, "-dsl", "A sideways B"},
		{"search", "-scenes", scenesPath, "-region", "1,2,3"},
		{"search", "-scenes", scenesPath, "-region", "a,b,c,d"},
		{"search", "-scenes", scenesPath, "-query", img, "-region-label", "A"}, // label without region

	} {
		if err := run(args); err == nil {
			t.Fatalf("%v: accepted, want error", args)
		}
	}
}

// TestSearchExplain pins the -explain debugging view: per-hit bound vs
// exact score, the plan and the per-stage candidate counts.
func TestSearchExplain(t *testing.T) {
	dir := t.TempDir()
	scenesPath := filepath.Join(dir, "scenes.ndjson")
	if err := run([]string{"mkdb", "-out", scenesPath, "-count", "20", "-seed", "4"}); err != nil {
		t.Fatalf("mkdb: %v", err)
	}
	img := writeFig1(t)

	capture := func(args ...string) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run(args)
		w.Close()
		os.Stdout = old
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if runErr != nil {
			t.Fatalf("run %v: %v", args, runErr)
		}
		return string(out)
	}

	out := capture("search", "-scenes", scenesPath, "-query", img, "-k", "5", "-explain")
	if !strings.Contains(out, "bound") || !strings.Contains(out, "stages:") {
		t.Fatalf("-explain output missing bound column or stage counts:\n%s", out)
	}
	if !strings.Contains(out, "-> bounded") || !strings.Contains(out, "pruned") {
		t.Fatalf("-explain output missing pipeline stages:\n%s", out)
	}
	if !strings.Contains(out, "plan: scan (scan -> rank)") {
		t.Fatalf("-explain output missing the plan line:\n%s", out)
	}

	// Exact-only scorers print "-" for the bound column: every hit line
	// (rank, id, score, bound, ...) must carry the dash as its fourth
	// field.
	out = capture("search", "-scenes", scenesPath, "-query", img, "-k", "3", "-method", "type0", "-explain")
	hits := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] == "rank" || strings.HasPrefix(line, "stages:") ||
			strings.HasPrefix(line, "timing:") || strings.HasPrefix(line, "plan:") ||
			strings.HasPrefix(line, "scorer cache:") || strings.HasPrefix(line, "(") {
			continue
		}
		hits++
		if f[3] != "-" {
			t.Fatalf("type0 -explain bound column = %q, want \"-\":\n%s", f[3], out)
		}
	}
	if hits == 0 {
		t.Fatalf("no hit lines parsed from -explain output:\n%s", out)
	}
}
