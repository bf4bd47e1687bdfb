package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Paths, all inside the checkout: buildDir holds the server binary and
// the per-run data directories, outDir the logs, traces and budgets.
const (
	buildDir = ".bench_build"
	outDir   = "benchmark/out"
)

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/server from the checkout's sources and
// reports how long that took (a no-op rebuild when nothing changed).
func buildServer(ctx context.Context, root string) (bin string, seconds float64, err error) {
	bin = filepath.Join(root, buildDir, "server")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build cmd/server: %w\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// server is one cmd/server child process on its own data directory.
type server struct {
	bin, dir string
	log      *os.File
	base     string // http://127.0.0.1:port
	cmd      *exec.Cmd
	hc       *http.Client
}

// freePort asks the kernel for an unused TCP port. The server cannot
// report a port chosen by ":0", so the harness picks one and hands it
// over; the window in which another process could take it is tiny.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newServer prepares (does not start) a server on a fresh data
// directory; its stderr is appended to the workload's log in outDir.
func newServer(bin, root, workload string) (*server, error) {
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "data-"+workload+"-")
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(root, outDir, "server-"+workload+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &server{bin: bin, dir: dir, log: logf, hc: &http.Client{Timeout: 60 * time.Second}}, nil
}

// start spawns the process with -fsync always and otherwise default
// flags, and waits until /healthz answers.
func (s *server) start(ctx context.Context) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s.base = "http://" + addr
	s.cmd = exec.Command(s.bin, "-addr", addr, "-data-dir", s.dir, "-fsync", "always")
	s.cmd.Stderr = s.log
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := s.health(ctx); err == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server on %s did not answer /healthz in 60s (see %s)", addr, s.log.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// health is the decoded /healthz body.
type health struct {
	Images int `json:"images"`
	WAL    struct {
		Segments int `json:"segments"`
	} `json:"wal"`
}

func (s *server) health(ctx context.Context) (health, error) {
	var h health
	body, err := s.get(ctx, "/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// metrics scrapes /metrics.
func (s *server) metrics(ctx context.Context) (samples, error) {
	body, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// load imports the corpus over HTTP and confirms /healthz reports it.
func (s *server) load(ctx context.Context, ndjson []byte, scenes int) error {
	req, err := http.NewRequestWithContext(ctx, "POST", s.base+"/api/v1/import", bytes.NewReader(ndjson))
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("import: status %d: %s", resp.StatusCode, body)
	}
	return s.expectImages(ctx, scenes)
}

func (s *server) expectImages(ctx context.Context, want int) error {
	h, err := s.health(ctx)
	if err != nil {
		return err
	}
	if h.Images != want {
		return fmt.Errorf("/healthz reports %d images, want %d", h.Images, want)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// diskBytes sums the data directory's file sizes.
func (s *server) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// kill sends SIGKILL and reaps the child: a crash, not a shutdown.
func (s *server) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // reaping; the exit status of a killed child is not news
	s.cmd = nil
}

// close kills the child and removes its data directory.
func (s *server) close() {
	s.kill()
	s.log.Close()
	os.RemoveAll(s.dir)
}
