package bestring

import (
	"io"
	"iter"

	"bestring/internal/imagedb"
	"bestring/internal/ingest"
)

// Streaming-import surface, re-exported (DESIGN.md section 12). An
// Importer pulls scenes from a SceneReader one at a time, converts and
// signs them in a bounded worker pool, and commits bounded chunks — one
// WAL record, one fsync, one published MVCC version each — so corpora
// far larger than memory import with backpressure, observable progress
// and crash resume (already-durable chunks are skipped by content key).
type (
	// Importer streams scenes into a DB in chunked, resumable batches.
	Importer = imagedb.Importer
	// ImportOptions tune chunk bounds, parallelism, resume and progress.
	ImportOptions = imagedb.ImportOptions
	// ImportStats describe an import run (or the store's cumulative
	// tally, served on /healthz).
	ImportStats = imagedb.ImportStats
	// SceneReader yields one scene at a time; io.EOF ends the stream.
	SceneReader = ingest.Reader
	// Scene is one importable image with its identity.
	Scene = ingest.Scene
)

// Default import chunk bounds: a chunk closes at this many scenes or
// this many estimated encoded bytes, whichever trips first.
const (
	DefaultImportChunkScenes = imagedb.DefaultImportChunkScenes
	DefaultImportChunkBytes  = imagedb.DefaultImportChunkBytes
)

// NDJSONScenes reads newline-delimited JSON scenes — one
// {"id":...,"name":...,"image":{...}} object per line, the wire format
// of POST /api/v1/import.
func NDJSONScenes(r io.Reader) SceneReader { return ingest.NDJSON(r) }

// CSVScenes reads the compact CSV dialect (id,name,xmax,ymax,objects
// with |-separated label:x0:y0:x1:y1 object specs).
func CSVScenes(r io.Reader) SceneReader { return ingest.CSV(r) }

// ScenesFromSlice wraps an in-memory slice as a SceneReader.
func ScenesFromSlice(scenes []Scene) SceneReader { return ingest.FromItems(scenes) }

// ScenesFromSeq adapts a Go iterator to a SceneReader, so generators can
// feed an import without materialising the corpus.
func ScenesFromSeq(seq iter.Seq2[Scene, error]) SceneReader { return ingest.FromSeq(seq) }
