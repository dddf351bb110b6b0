package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one background maintenance unit of work — a flush, a compaction, a
// replica catch-up, a split, a failover — with a resource ledger attached.
// Jobs are the background counterpart of query spans: always on, charged with
// wall time plus the analytic byte volumes the work moved, so tail-latency
// interference from maintenance is attributable after the fact.
//
// Ledger fields are atomics and every method is safe on a nil receiver, so
// instrumented paths never branch on "is job recording on" — a store without
// a recorder hands out nil jobs and all charges are no-ops. Job recording is
// strictly side-band: it never feeds the deterministic Stats counters, so
// golden-counter tests are unaffected by wall-clock scheduling.
type Job struct {
	ID     int64  `json:"id"`
	Kind   string `json:"kind"`
	Table  string `json:"table,omitempty"`
	Region int64  `json:"region"`

	start    time.Time
	endNanos atomic.Int64 // 0 while running; monotonic-derived wall duration at End

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	items        atomic.Int64
	stallNanos   atomic.Int64
}

// AddBytesRead charges input bytes (run bytes merged, frames replayed).
func (j *Job) AddBytesRead(n int64) {
	if j != nil && n > 0 {
		j.bytesRead.Add(n)
	}
}

// AddBytesWritten charges output bytes (run bytes produced, snapshot volume).
func (j *Job) AddBytesWritten(n int64) {
	if j != nil && n > 0 {
		j.bytesWritten.Add(n)
	}
}

// AddItems charges a unit count (runs merged, frames shipped, rows moved).
func (j *Job) AddItems(n int64) {
	if j != nil && n > 0 {
		j.items.Add(n)
	}
}

// AddStall charges time the job spent holding locks other work waited on.
func (j *Job) AddStall(d time.Duration) {
	if j != nil && d > 0 {
		j.stallNanos.Add(d.Nanoseconds())
	}
}

// Running reports whether the job has not ended yet (false on nil).
func (j *Job) Running() bool { return j != nil && j.endNanos.Load() == 0 }

// Duration returns elapsed wall time: running jobs report time so far.
func (j *Job) Duration() time.Duration {
	if j == nil {
		return 0
	}
	if e := j.endNanos.Load(); e != 0 {
		return time.Duration(e)
	}
	return time.Since(j.start)
}

// JobSnapshot is the wire form of one job for /debug/jobs and for attaching
// background interference to a query trace.
type JobSnapshot struct {
	ID           int64   `json:"id"`
	Kind         string  `json:"kind"`
	Table        string  `json:"table,omitempty"`
	Region       int64   `json:"region"`
	StartUnixMS  int64   `json:"start_unix_ms"`
	DurationMS   float64 `json:"duration_ms"`
	Running      bool    `json:"running"`
	BytesRead    int64   `json:"bytes_read"`
	BytesWritten int64   `json:"bytes_written"`
	Items        int64   `json:"items"`
	StallNanos   int64   `json:"stall_ns"`
}

func (j *Job) snapshot() JobSnapshot {
	return JobSnapshot{
		ID:           j.ID,
		Kind:         j.Kind,
		Table:        j.Table,
		Region:       j.Region,
		StartUnixMS:  j.start.UnixMilli(),
		DurationMS:   float64(j.Duration().Nanoseconds()) / 1e6,
		Running:      j.Running(),
		BytesRead:    j.bytesRead.Load(),
		BytesWritten: j.bytesWritten.Load(),
		Items:        j.items.Load(),
		StallNanos:   j.stallNanos.Load(),
	}
}

// Span converts a job snapshot into a completed span for trace attachment.
func (s JobSnapshot) Span() *Span {
	sp := &Span{name: s.Kind + ":" + s.Table, start: time.Now(), dur: time.Duration(s.DurationMS * 1e6)}
	sp.Add("job_id", s.ID)
	sp.Add("region", s.Region)
	sp.Add("bytes_read", s.BytesRead)
	sp.Add("bytes_written", s.BytesWritten)
	sp.Add("items", s.Items)
	sp.Add("stall_ns", s.StallNanos)
	if s.Running {
		sp.Add("running", 1)
	}
	return sp
}

// JobKindStats are the cumulative per-kind aggregates a completed job folds
// into — the backing store for the tman_bg_* counter families.
type JobKindStats struct {
	Jobs         int64
	BytesRead    int64
	BytesWritten int64
	Items        int64
	StallNanos   int64
	TotalNanos   int64
}

type jobAgg struct {
	jobs         atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	items        atomic.Int64
	stallNanos   atomic.Int64
	totalNanos   atomic.Int64
}

// JobRecorder tracks in-flight background jobs and retains a bounded ring of
// completed ones, with cumulative per-kind aggregates for scrape-time
// mirroring into counters. All methods are nil-safe.
type JobRecorder struct {
	mu      sync.Mutex
	seq     int64
	active  map[int64]*Job
	ring    []*Job // completed jobs, ring buffer
	next    int
	aggs    map[string]*jobAgg
	running atomic.Int64
}

// NewJobRecorder builds a recorder retaining up to n completed jobs
// (n <= 0 → 256).
func NewJobRecorder(n int) *JobRecorder {
	if n <= 0 {
		n = 256
	}
	return &JobRecorder{
		active: make(map[int64]*Job),
		ring:   make([]*Job, 0, n),
		aggs:   make(map[string]*jobAgg),
	}
}

// Begin opens a job. Returns nil (a no-op job) on a nil recorder.
func (r *JobRecorder) Begin(kind, table string, region int64) *Job {
	return r.BeginAt(kind, table, region, time.Now())
}

// BeginAt is Begin for work that started before the recorder existed (a
// store's recovery opens the store that owns the recorder).
func (r *JobRecorder) BeginAt(kind, table string, region int64, start time.Time) *Job {
	if r == nil {
		return nil
	}
	j := &Job{Kind: kind, Table: table, Region: region, start: start}
	r.mu.Lock()
	r.seq++
	j.ID = r.seq
	r.active[j.ID] = j
	r.mu.Unlock()
	r.running.Add(1)
	return j
}

// End closes a job and folds it into the ring and the per-kind aggregates.
// Safe on a nil recorder or nil job; idempotent per job.
func (r *JobRecorder) End(j *Job) {
	if r == nil || j == nil {
		return
	}
	if !j.endNanos.CompareAndSwap(0, time.Since(j.start).Nanoseconds()) {
		return
	}
	r.running.Add(-1)
	r.mu.Lock()
	delete(r.active, j.ID)
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, j)
	} else {
		r.ring[r.next] = j
		r.next = (r.next + 1) % cap(r.ring)
	}
	agg := r.aggs[j.Kind]
	if agg == nil {
		agg = &jobAgg{}
		r.aggs[j.Kind] = agg
	}
	r.mu.Unlock()
	agg.jobs.Add(1)
	agg.bytesRead.Add(j.bytesRead.Load())
	agg.bytesWritten.Add(j.bytesWritten.Load())
	agg.items.Add(j.items.Load())
	agg.stallNanos.Add(j.stallNanos.Load())
	agg.totalNanos.Add(j.endNanos.Load())
}

// RunningCount returns the number of in-flight jobs (0 on nil).
func (r *JobRecorder) RunningCount() int64 {
	if r == nil {
		return 0
	}
	return r.running.Load()
}

// KindStats returns the cumulative aggregates for one job kind. Kinds that
// have never completed a job return zeros, so scrape-time mirrors can
// register a fixed kind list up front.
func (r *JobRecorder) KindStats(kind string) JobKindStats {
	if r == nil {
		return JobKindStats{}
	}
	r.mu.Lock()
	agg := r.aggs[kind]
	r.mu.Unlock()
	if agg == nil {
		return JobKindStats{}
	}
	return JobKindStats{
		Jobs:         agg.jobs.Load(),
		BytesRead:    agg.bytesRead.Load(),
		BytesWritten: agg.bytesWritten.Load(),
		Items:        agg.items.Load(),
		StallNanos:   agg.stallNanos.Load(),
		TotalNanos:   agg.totalNanos.Load(),
	}
}

// Snapshot returns the in-flight jobs plus up to limit recently completed
// jobs, newest first (limit <= 0 → all retained).
func (r *JobRecorder) Snapshot(limit int) (running, recent []JobSnapshot) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	for _, j := range r.active {
		running = append(running, j.snapshot())
	}
	n := len(r.ring)
	if limit > 0 && limit < n {
		n = limit
	}
	for i := 0; i < n; i++ {
		// Newest first: walk backwards from the slot before next.
		idx := (r.next - 1 - i + 2*len(r.ring)) % len(r.ring)
		recent = append(recent, r.ring[idx].snapshot())
	}
	r.mu.Unlock()
	sort.Slice(running, func(a, b int) bool { return running[a].ID > running[b].ID })
	return running, recent
}

// Overlapping returns jobs whose lifetime intersects [since, until]: every
// in-flight job that started before until, plus completed jobs that were
// still running at since. This is how a forced query trace picks up the
// compactions and flushes that interfered with it.
func (r *JobRecorder) Overlapping(since, until time.Time) []JobSnapshot {
	if r == nil {
		return nil
	}
	var out []JobSnapshot
	r.mu.Lock()
	for _, j := range r.active {
		if j.start.Before(until) {
			out = append(out, j.snapshot())
		}
	}
	for _, j := range r.ring {
		if !j.start.Before(until) {
			continue
		}
		end := j.start.Add(time.Duration(j.endNanos.Load()))
		if end.After(since) {
			out = append(out, j.snapshot())
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
