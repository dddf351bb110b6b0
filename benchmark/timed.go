package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/tman-db/tman/internal/model"
)

// env is what every run shares: the built tmand, a scratch directory that
// is removed on exit, and where progress is logged.
type env struct {
	tmand   string
	workDir string
	log     io.Writer
	trace   bool // also collect per-layer counters around the window
	setups  int  // minimum number of set-ups measured per run

	mu      sync.Mutex
	running map[*server]bool // live subprocesses, killed on abort
	child   *exec.Cmd        // live child run (runApart), terminated on abort
	dirSeq  int
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

func (e *env) track(s *server, on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running == nil {
		e.running = map[*server]bool{}
	}
	if on {
		e.running[s] = true
	} else {
		delete(e.running, s)
	}
}

func (e *env) setChild(c *exec.Cmd) {
	e.mu.Lock()
	e.child = c
	e.mu.Unlock()
}

// killAll stops every tmand still running and asks a child run to stop its
// own; the signal handler and the exit path call it.
func (e *env) killAll() {
	e.mu.Lock()
	live := make([]*server, 0, len(e.running))
	for s := range e.running {
		live = append(live, s)
	}
	child := e.child
	e.mu.Unlock()
	for _, s := range live {
		s.kill()
		e.track(s, false)
	}
	if child != nil && child.Process != nil {
		_ = child.Process.Signal(syscall.SIGTERM) // already-exited is fine
		_, _ = child.Process.Wait()               // the owner's Run may have reaped it first
	}
}

// start brings up a tmand for the workload on dataDir — the built binary
// as a subprocess, or the in-process stand-in when e.tmand is empty — and
// waits until it answers.
func (e *env) start(in *inputs, dataDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.dirSeq++
	logPath := filepath.Join(e.workDir, fmt.Sprintf("tmand-%d.log", e.dirSeq))
	e.mu.Unlock()
	var s *server
	if e.tmand == "" {
		s, err = startInProcess(in, port, dataDir)
	} else {
		s, err = startServer(e.tmand, port, dataDir, logPath, in.spec.serverArgs())
	}
	if err != nil {
		return nil, err
	}
	e.track(s, true)
	if err := s.waitReady(60 * time.Second); err != nil {
		e.stop(s)
		return nil, err
	}
	return s, nil
}

func (e *env) stop(s *server) {
	s.kill()
	e.track(s, false)
}

// second is one 1 Hz sample of the gauges and write counters during a
// traced window.
type second struct {
	atNS                 int64
	scanQueue, compactQ  float64
	flushedB, compactedB float64
}

// timedRun is everything measured around one timed window.
type timedRun struct {
	in       *inputs
	setupS   []float64
	load     *loadResult
	due      int     // ops the window should have answered
	cpuS     float64 // tmand user+sys over the window
	genCPUS  float64 // this process over the window
	rssMiB   float64
	walBytes int64
	userB    int64 // raw bytes of everything acknowledged, preload included

	before, after counters // trace only
	seconds       []second // trace only

	recoverS  float64
	ackedLost int
	pointOps  int
	failures  []string // reasons, first few
	wrong     int      // decoded answers the oracle rejected
	// transientMisses counts answers that lacked a stored trajectory beside
	// concurrent writes but were right when asked again after the window.
	transientMisses int
	invalid         []string // run-validity guard trips
}

func (r *timedRun) fail(reason string) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, reason)
	}
}

// warmOps are the untimed reads run before the window: the whole pool once
// on a pool workload, spec.warmOps fresh reads otherwise.
func warmOps(in *inputs) []*op {
	if in.pool != nil {
		return in.pool
	}
	g := newOpGen(in, in.seed+5)
	var out []*op
	for len(out) < in.spec.warmOps {
		if k := g.pickKind(); k != opIngest {
			out = append(out, g.fresh(k))
		}
	}
	return out
}

func preloadOps(in *inputs) []*op {
	out := make([]*op, len(in.preload))
	for i, t := range in.preload {
		out[i] = &op{kind: opIngest, method: "PUT", url: "/trajectories", tmpl: t}
	}
	return out
}

// setUp brings a fresh tmand to the state the window starts from and
// returns how long that took: process start, preload over HTTP, background
// work quiesced, caches warmed.
func (e *env) setUp(in *inputs, client *http.Client, dataDir string) (*server, float64, error) {
	t0 := time.Now()
	srv, err := e.start(in, dataDir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*server, float64, error) {
		e.stop(srv)
		return nil, 0, err
	}
	// One connection: concurrent ingest batches race in the engine's TShape
	// re-encode and leave rows no spatial plan reaches (README, "Defects
	// found"), which would make exact answer checking fail by set-up alone.
	if err := runOps(srv.base, client, nil, preloadOps(in), 1, false).loadError("preload"); err != nil {
		return fail(err)
	}
	if err := srv.quiesce(120 * time.Second); err != nil {
		return fail(err)
	}
	if err := runOps(srv.base, client, nil, warmOps(in), clients, false).loadError("warm-up"); err != nil {
		return fail(err)
	}
	return srv, time.Since(t0).Seconds(), nil
}

// sampleSeconds polls /stats once a second until stop closes.
func sampleSeconds(srv *server, t0 time.Time, stop <-chan struct{}, out *[]second) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			st, err := srv.stats()
			if err != nil {
				continue // a busy server may miss a beat; the next one counts
			}
			*out = append(*out, second{
				atNS: int64(time.Since(t0)), scanQueue: st["scan_queue_depth"], compactQ: st["compact_queue_depth"],
				flushedB: st["bytes_flushed"], compactedB: st["bytes_compacted"],
			})
		}
	}
}

// runTimed performs the end-to-end pass of one workload: set-ups, the timed
// window against a real tmand over loopback, answer checking, and the
// kill-and-recover leg.
func (e *env) runTimed(in *inputs, seconds float64) (*timedRun, error) {
	spec := in.spec
	r := &timedRun{in: in}
	client := newLoadClient()
	defer client.CloseIdleConnections()

	// Set up e.setups times (more while set-up is so short that its timing is
	// mostly noise; once when the caller asked for one) and keep the last
	// instance for the window.
	var srv *server
	var dataDir string
	total := 0.0
	for i := 0; i < e.setups || (e.setups > 1 && total < 1.5 && i < 15); i++ {
		if srv != nil {
			e.stop(srv)
			os.RemoveAll(dataDir)
		}
		dataDir = filepath.Join(e.workDir, fmt.Sprintf("data-%s-%d", spec.name, i))
		var s float64
		var err error
		if srv, s, err = e.setUp(in, client, dataDir); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, s)
		total += s
	}
	defer func() {
		e.stop(srv)
		os.RemoveAll(dataDir)
	}()
	for _, t := range in.preload {
		r.userB += t.userBytes
	}

	// The window.
	runtime.GC() // start from a collected heap so generator pauses stay out of the window
	var stopSampler chan struct{}
	var samplerDone sync.WaitGroup
	if e.trace {
		var err error
		if r.before, err = srv.scrape(); err != nil {
			return nil, err
		}
		stopSampler = make(chan struct{})
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			sampleSeconds(srv, time.Now(), stopSampler, &r.seconds)
		}()
	}
	cpu0, err := procCPUSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	gen0, _ := procCPUSeconds(os.Getpid())
	if spec.open {
		r.due = len(in.schedule)
		r.load = runOpen(srv.base, client, in.oracle, in.schedule)
	} else {
		gens := make([]*opGen, clients)
		for c := range gens {
			gens[c] = clientGen(in, c)
		}
		r.load = runClosed(srv.base, client, in.oracle, gens, time.Duration(seconds*float64(time.Second)))
		r.due = len(r.load.samples)
	}
	cpu1, err := procCPUSeconds(srv.pid())
	if err != nil {
		if !srv.alive() {
			return nil, srv.earlyExit()
		}
		return nil, err
	}
	gen1, _ := procCPUSeconds(os.Getpid())
	r.cpuS, r.genCPUS = cpu1-cpu0, gen1-gen0
	if e.tmand == "" {
		r.genCPUS = 0 // served in-process: the two cannot be told apart
	}
	if e.trace {
		close(stopSampler)
		samplerDone.Wait()
		if r.after, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	if r.rssMiB, err = procPeakRSSMiB(srv.pid()); err != nil {
		return nil, err
	}
	if !srv.alive() {
		return nil, srv.earlyExit()
	}

	// Answers.
	// Beside concurrent writes a read can miss a stored trajectory while its
	// element is being re-encoded; such an answer is asked again now that
	// the writes have stopped and counts as wrong only if it still is.
	exact := spec.mix[opIngest] == 0
	var again []*op
	for _, a := range r.load.answers {
		v := in.oracle.verify(a, exact)
		switch {
		case v.reason == "":
		case v.onlyMissing && !exact:
			again = append(again, a.op)
		default:
			r.wrong++
			r.fail(v.reason)
		}
	}
	for _, a := range runOps(srv.base, client, in.oracle, again, 1, true).answers {
		if v := in.oracle.verify(a, exact); v.reason != "" {
			r.wrong++
			r.fail(v.reason + " (also when asked again after the window)")
		} else {
			r.transientMisses++
		}
	}
	var acked []*model.Trajectory
	ackedN := len(in.ds.Trajs)
	for _, s := range r.load.samples {
		if !s.ok {
			r.fail(fmt.Sprintf("%s: status %d", kindNames[s.kind], s.status))
			continue
		}
		if s.kind == opIngest {
			ackedN += s.results
			r.userB += s.op.tmpl.userBytes
			for _, t := range s.op.tmpl.trajs {
				c := *t
				c.TID = tidWithOrdinal(t.TID, s.op.ordinal)
				acked = append(acked, &c)
			}
		}
	}
	r.checkValidity()

	// Durability: kill, restart on the same directory, compare.
	if st, err := os.Stat(filepath.Join(dataDir, "wal.log")); err == nil {
		r.walBytes = st.Size()
	}
	// A recovery that takes a fraction of a second is timed up to nine times
	// over (the log it replays grows by one metadata record a restart) and
	// the fastest reported. Whatever else the host is doing only ever adds to
	// a restart, and does so for seconds on end: the first two to five
	// restarts after a window often take 0.5 s where the rest take 0.4 s, for
	// the same CPU time, so a median sits on either side of that edge from
	// one run to the next and the minimum does not.
	var recoveries []float64
	for total := 0.0; len(recoveries) == 0 || (e.setups > 1 && total < 4 && len(recoveries) < 9); {
		e.stop(srv)
		t0 := time.Now()
		if srv, err = e.start(in, dataDir); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recoveries = append(recoveries, time.Since(t0).Seconds())
		total += recoveries[len(recoveries)-1]
	}
	r.recoverS = slices.Min(recoveries)
	e.logf("%s: set-ups %.3f s, restarts after SIGKILL %.3f s", spec.name, r.setupS, recoveries)
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	if got := int(st["trajectories"]); got < ackedN {
		r.ackedLost = ackedN - got
		r.fail(fmt.Sprintf("after restart tmand holds %d trajectories, %d were acknowledged", got, ackedN))
	}
	acked = append(acked, in.ds.Trajs...)
	points := pointChecks(acked, in.seed+7, 200)
	r.pointOps = len(points)
	for _, a := range runOps(srv.base, client, in.oracle, points, clients, true).answers {
		found := a.status == http.StatusOK && !a.partial
		if found {
			found = false
			for _, tid := range a.tids {
				found = found || tid == a.op.wantTID
			}
		}
		if !found {
			r.ackedLost++
			r.fail("acknowledged trajectory " + a.op.wantTID + " not readable after restart")
		}
	}
	return r, nil
}

// pointChecks draws up to n acknowledged trajectories and builds the
// /query/object read that must return each.
func pointChecks(acked []*model.Trajectory, seed int64, n int) []*op {
	rng := rand.New(rand.NewSource(seed))
	if n > len(acked) {
		n = len(acked)
	}
	out := make([]*op, 0, n)
	for _, i := range rng.Perm(len(acked))[:n] {
		t := acked[i]
		tr := t.TimeRange()
		out = append(out, &op{
			kind: opObject, method: "GET", oid: t.OID, tr: tr, wantTID: t.TID,
			url: fmt.Sprintf("/query/object?oid=%s&start=%d&end=%d", t.OID, tr.Start, tr.End) + deadlineParam,
		})
	}
	return out
}

const (
	maxClosedLagP99MS = 5.0 // generator think time a closed loop may show
	maxGenCPUCores    = 0.5
)

// checkValidity applies the run-validity guards: enough samples, and a
// generator that neither lagged nor ate the server's CPU.
func (r *timedRun) checkValidity() {
	spec := r.in.spec
	if n := len(r.load.samples); n < spec.minSamples {
		r.invalid = append(r.invalid, fmt.Sprintf("%d samples in the window, need %d", n, spec.minSamples))
	}
	if lag := r.lagP99MS(); !spec.open && lag > maxClosedLagP99MS {
		r.invalid = append(r.invalid, fmt.Sprintf("generator lag p99 %.2f ms > %.0f ms on a closed loop", lag, maxClosedLagP99MS))
	}
	if frac := r.genCPUS / r.load.elapsed.Seconds(); frac > maxGenCPUCores {
		r.invalid = append(r.invalid, fmt.Sprintf("generator used %.2f cores > %.1f", frac, maxGenCPUCores))
	}
}

func (r *timedRun) lagP99MS() float64 {
	lags := make([]float64, len(r.load.samples))
	for i, s := range r.load.samples {
		lags[i] = float64(s.lagNS) / 1e6
	}
	sort.Float64s(lags)
	return percentile(lags, 0.99)
}
