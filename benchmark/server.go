package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	tman "github.com/tman-db/tman"
)

// buildTmand compiles cmd/tmand of the checkout at root into dir and
// returns the binary's path. With a warm build cache this is a no-op link.
func buildTmand(root, dir string) (string, error) {
	bin := filepath.Join(dir, "tmand")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tmand")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tmand in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// findRoot walks up from the working directory to the checkout that holds
// cmd/tmand, so `go run -C benchmark .` needs no flag.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tmand", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with cmd/tmand above the working directory; pass -root")
		}
		dir = parent
	}
}

// freePort asks the kernel for an unused loopback port. Should another
// process take it before tmand binds it, tmand exits and waitReady reports
// its log.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// server is one tmand: normally a subprocess; in the -smoke pass (and the
// package's tests, which may not start processes) the same database and
// handler served from inside this process.
type server struct {
	cmd     *exec.Cmd // nil when in-process
	base    string    // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once the server is gone
	ctl     *http.Client  // control plane: /stats, /metrics — never the load connections

	db   *tman.DB     // in-process only
	http *http.Server // in-process only
	once sync.Once
}

func newServer(port int, logPath string) *server {
	return &server{
		base: "http://127.0.0.1:" + strconv.Itoa(port), logPath: logPath,
		exited: make(chan struct{}),
		ctl:    &http.Client{Timeout: 30 * time.Second},
	}
}

func startServer(bin string, port int, dataDir, logPath string, args []string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := newServer(port, logPath)
	full := append([]string{"-addr", s.base[len("http://"):], "-data", dataDir}, args...)
	s.cmd = exec.Command(bin, full...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start tmand: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries no news
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// startInProcess serves the workload's database from this process on a real
// loopback socket, opened as tmand would open it.
func startInProcess(in *inputs, port int, dataDir string) (*server, error) {
	db, api, err := openLikeTmand(in, dataDir)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		db.Close()
		return nil, err
	}
	s := newServer(port, "")
	s.db, s.http = db, &http.Server{Handler: api}
	go func() { _ = s.http.Serve(l) }() // returns ErrServerClosed on kill
	return s, nil
}

// pid is the process whose CPU and memory are the server's: the
// subprocess, or this process when serving in-process.
func (s *server) pid() int {
	if s.cmd == nil {
		return os.Getpid()
	}
	return s.cmd.Process.Pid
}

func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// earlyExit builds the error for a tmand that died on its own, with the
// tail of its log.
func (s *server) earlyExit() error {
	logs, _ := os.ReadFile(s.logPath)
	if len(logs) > 2000 {
		logs = logs[len(logs)-2000:]
	}
	return fmt.Errorf("tmand exited early; log tail:\n%s", logs)
}

// waitReady polls /stats until it answers, failing at once if the process
// exits first.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if !s.alive() {
			return s.earlyExit()
		}
		if _, err := s.stats(); err == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("tmand not ready after %v", timeout)
}

// kill sends SIGKILL and waits for the process to be gone. Safe to call
// more than once.
func (s *server) kill() {
	if s == nil {
		return
	}
	if s.cmd != nil {
		_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	} else {
		s.once.Do(func() {
			s.http.Close()
			s.db.Close()
			close(s.exited)
		})
	}
	<-s.exited
	s.ctl.CloseIdleConnections()
}

// stats fetches /stats: cumulative counters and gauges as numbers (the
// nested per-type SLO block is dropped).
func (s *server) stats() (map[string]float64, error) {
	body, err := s.get("/stats")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var raw map[string]any
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// metrics fetches /metrics and parses the Prometheus text exposition into
// series name (labels included, as printed) -> value.
func (s *server) metrics() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return parseExposition(body)
}

// get fetches a control-plane path; the caller closes the body.
func (s *server) get(path string) (io.ReadCloser, error) {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return resp.Body, nil
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counters is one scrape of everything tmand exports: /stats keys as they
// are, /metrics series under their exposition names.
type counters map[string]float64

func (s *server) scrape() (counters, error) {
	st, err := s.stats()
	if err != nil {
		return nil, err
	}
	m, err := s.metrics()
	if err != nil {
		return nil, err
	}
	for k, v := range m {
		st[k] = v
	}
	return st, nil
}

// diff returns after-before for every key of after; a key missing before
// counts from zero.
func (before counters) diff(after counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// quiesce waits until tmand reports no running background job and an empty
// flush/compaction queue on three consecutive polls.
func (s *server) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	calm := 0
	for time.Now().Before(deadline) {
		if !s.alive() {
			return s.earlyExit()
		}
		st, err := s.stats()
		if err != nil {
			return err
		}
		if st["bg_jobs_running"] == 0 && st["compact_queue_depth"] == 0 {
			if calm++; calm >= 3 {
				return nil
			}
		} else {
			calm = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("background work did not quiesce within %v", timeout)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux configuration Go supports.
const clockTick = 100.0

// procCPUSeconds reads user+system CPU time of a process.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14 utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15 stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// procPeakRSSMiB reads VmHWM, the peak resident set size of a process.
func procPeakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
