// Package httpapi exposes a TMan database over HTTP/JSON — the service
// layer a deployment would put in front of the engine. It is deliberately
// small: JSON in, JSON out, no framework.
//
// Endpoints:
//
//	PUT  /trajectories           ingest a JSON array of trajectories
//	GET  /query/time             ?start=&end=                 (unix ms)
//	GET  /query/space            ?minx=&miny=&maxx=&maxy=
//	GET  /query/spacetime        space params + start/end
//	GET  /query/object           ?oid=&start=&end=
//	POST /query/similar          {"query": {...}, "measure": "frechet",
//	                              "k": 10} or {"theta": 0.015}
//	GET  /query/nearest          ?x=&y=&k=
//	DELETE /trajectories/{tid}   body: the trajectory to delete
//	GET  /stats                  engine + store counters
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/obs"
	"github.com/tman-db/tman/internal/similarity"
)

// TrajectoryJSON is the wire representation of a trajectory.
type TrajectoryJSON struct {
	OID    string      `json:"oid"`
	TID    string      `json:"tid"`
	Points []PointJSON `json:"points"`
}

// PointJSON is the wire representation of one observation.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	T int64   `json:"t"`
}

// QueryResponse is the wire representation of a query result. Partial is
// true when the query degraded gracefully (deadline expiry or exhausted
// retries dropped some region scans): the trajectories present are correct,
// but more may exist. Degraded queries still respond 200.
type QueryResponse struct {
	Count         int              `json:"count"`
	Plan          string           `json:"plan"`
	Candidates    int64            `json:"candidates"`
	ElapsedMs     float64          `json:"elapsed_ms"`
	Partial       bool             `json:"partial"`
	RetriedRPCs   int64            `json:"retried_rpcs"`
	FailedRegions int              `json:"failed_regions"`
	FollowerReads int64            `json:"follower_reads,omitempty"`
	Trajectories  []TrajectoryJSON `json:"trajectories"`
}

// similarRequest is the POST /query/similar body.
type similarRequest struct {
	Query   TrajectoryJSON `json:"query"`
	Measure string         `json:"measure"`
	K       int            `json:"k,omitempty"`
	Theta   float64        `json:"theta,omitempty"`
}

// Server wraps a DB with HTTP handlers.
type Server struct {
	db          *tman.DB
	mux         *http.ServeMux
	log         *slog.Logger
	slow        time.Duration // requests slower than this log at WARN; 0 disables
	maxInflight int64         // sheds query/ingest load above this; 0 disables
	started     time.Time
	met         *serverMetrics
}

// ServerOption customizes a Server at New time.
type ServerOption func(*Server)

// WithLogger sets the structured request logger. Nil disables request
// logging (the default).
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithSlowQueryThreshold logs requests slower than d at WARN level with
// their full query report. Zero disables slow-query logging.
func WithSlowQueryThreshold(d time.Duration) ServerOption {
	return func(s *Server) { s.slow = d }
}

// WithMaxInflight bounds concurrently served query/ingest requests: load
// above the bound is shed with 503 + Retry-After instead of queueing without
// limit, and counted per request type in tman_slo_shed_total. Diagnostic
// endpoints (/stats, /metrics, /trace, /debug/...) are never shed. Zero (the
// default) disables admission control.
func WithMaxInflight(n int) ServerOption {
	return func(s *Server) { s.maxInflight = int64(n) }
}

// New builds a Server over an open database.
func New(db *tman.DB, opts ...ServerOption) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), started: time.Now()}
	for _, o := range opts {
		o(s)
	}
	s.met = newServerMetrics(db.Engine().Metrics())
	s.mux.HandleFunc("/trajectories", s.handleIngest)
	s.mux.HandleFunc("/trajectories/", s.handleDelete)
	s.mux.HandleFunc("/query/time", s.handleTime)
	s.mux.HandleFunc("/query/space", s.handleSpace)
	s.mux.HandleFunc("/query/spacetime", s.handleSpaceTime)
	s.mux.HandleFunc("/query/object", s.handleObject)
	s.mux.HandleFunc("/query/similar", s.handleSimilar)
	s.mux.HandleFunc("/query/nearest", s.handleNearest)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/debug/jobs", s.handleDebugJobs)
	return s
}

// shedClass maps a request to its shed-accounting type, or "" when the
// request is not subject to admission control (diagnostic endpoints).
func shedClass(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/query/"):
		return strings.TrimPrefix(path, "/query/")
	case path == "/trajectories" && (method == http.MethodPut || method == http.MethodPost):
		return "ingest"
	default:
		return ""
	}
}

// ServeHTTP implements http.Handler: every request gets an X-Request-Id
// (propagated from the client or generated), request metrics, and — when a
// logger is configured — a structured access-log line with slow-request
// escalation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	r = r.WithContext(obs.WithRequestID(r.Context(), reqID))

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.met.inFlight.Add(1)
	if cls := shedClass(r.Method, r.URL.Path); cls != "" && s.maxInflight > 0 &&
		s.met.inFlight.Value() > s.maxInflight {
		// Shed rather than queue: the client gets an immediate, honest 503
		// it can back off on, instead of a latency cliff for everyone.
		if c, ok := s.met.shed[cls]; ok {
			c.Inc()
		}
		rec.Header().Set("Retry-After", "1")
		httpError(rec, http.StatusServiceUnavailable,
			"overloaded: %d requests in flight (limit %d)", s.met.inFlight.Value()-1, s.maxInflight)
	} else {
		s.mux.ServeHTTP(rec, r)
	}
	s.met.inFlight.Add(-1)

	elapsed := time.Since(started)
	s.met.observe(rec.status, elapsed)
	if s.log == nil {
		return
	}
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"elapsed_ms", float64(elapsed.Microseconds()) / 1000,
		"request_id", reqID,
	}
	switch {
	case s.slow > 0 && elapsed >= s.slow:
		s.log.Warn("slow request", attrs...)
	case rec.status >= 500:
		s.log.Error("request failed", attrs...)
	default:
		s.log.Debug("request", attrs...)
	}
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func toModel(in TrajectoryJSON) *tman.Trajectory {
	t := &tman.Trajectory{OID: in.OID, TID: in.TID}
	for _, p := range in.Points {
		t.Points = append(t.Points, tman.Point{X: p.X, Y: p.Y, T: p.T})
	}
	return t
}

func fromModel(t *tman.Trajectory) TrajectoryJSON {
	out := TrajectoryJSON{OID: t.OID, TID: t.TID}
	for _, p := range t.Points {
		out.Points = append(out.Points, PointJSON{X: p.X, Y: p.Y, T: p.T})
	}
	return out
}

// maxIngestBodyBytes caps one ingest request body. The whole batch is
// decoded into memory before anything is stored, so an unbounded body is an
// unbounded allocation; 32 MiB is far above any sane batch (500 trajectories
// are on the order of 1 MiB of JSON).
const maxIngestBodyBytes = 32 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use PUT or POST")
		return
	}
	var in []TrajectoryJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBodyBytes)).Decode(&in); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "ingest body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	// Validate up front so the request lands as one PutBatch through the
	// batched write path. The first invalid trajectory cuts the batch: the
	// valid prefix is still stored and the response reports how far ingest
	// got, matching the old sequential semantics.
	batch := make([]*tman.Trajectory, 0, len(in))
	var badTID string
	var badErr error
	for _, tj := range in {
		t := toModel(tj)
		t.SortByTime()
		if err := t.Validate(); err != nil {
			badTID, badErr = tj.TID, err
			break
		}
		batch = append(batch, t)
	}
	if err := s.db.PutBatch(batch); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "batch rejected: %v", err)
		return
	}
	if badErr != nil {
		httpError(w, http.StatusUnprocessableEntity,
			"trajectory %q rejected after %d stored: %v", badTID, len(batch), badErr)
		return
	}
	writeJSON(w, map[string]any{"stored": len(batch), "total": s.db.Len()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, "use DELETE")
		return
	}
	var in TrajectoryJSON
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if err := s.db.Delete(toModel(in)); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "delete failed: %v", err)
		return
	}
	writeJSON(w, map[string]any{"total": s.db.Len()})
}

func (s *Server) handleTime(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q, ok := timeRangeParam(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	trips, rep, err := s.db.QueryTimeRangeCtx(ctx, q)
	respond(w, trips, rep, err)
}

func (s *Server) handleSpace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	sr, ok := rectParam(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	trips, rep, err := s.db.QuerySpaceCtx(ctx, sr)
	respond(w, trips, rep, err)
}

func (s *Server) handleSpaceTime(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	sr, ok := rectParam(w, r)
	if !ok {
		return
	}
	q, ok := timeRangeParam(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	trips, rep, err := s.db.QuerySpaceTimeCtx(ctx, sr, q)
	respond(w, trips, rep, err)
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	oid := r.URL.Query().Get("oid")
	if oid == "" {
		httpError(w, http.StatusBadRequest, "missing oid")
		return
	}
	q, ok := timeRangeParam(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	trips, rep, err := s.db.QueryObjectCtx(ctx, oid, q)
	respond(w, trips, rep, err)
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req similarRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	var m tman.Measure
	switch req.Measure {
	case "frechet", "":
		m = similarity.Frechet
	case "dtw":
		m = similarity.DTW
	case "hausdorff":
		m = similarity.Hausdorff
	default:
		httpError(w, http.StatusBadRequest, "unknown measure %q", req.Measure)
		return
	}
	query := toModel(req.Query)
	query.SortByTime()
	ctx, cancel, ok := queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	switch {
	case req.K > 0:
		trips, rep, err := s.db.QuerySimilarTopKCtx(ctx, query, m, req.K)
		respond(w, trips, rep, err)
	case req.Theta > 0:
		trips, rep, err := s.db.QuerySimilarThresholdCtx(ctx, query, m, req.Theta)
		respond(w, trips, rep, err)
	default:
		httpError(w, http.StatusBadRequest, "set k or theta")
	}
}

// handleNearest serves GET /query/nearest?x=&y=&k=.
func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	x, e1 := strconv.ParseFloat(r.URL.Query().Get("x"), 64)
	y, e2 := strconv.ParseFloat(r.URL.Query().Get("y"), 64)
	k, e3 := strconv.Atoi(r.URL.Query().Get("k"))
	if e1 != nil || e2 != nil || e3 != nil || k <= 0 {
		httpError(w, http.StatusBadRequest, "need x, y and k > 0")
		return
	}
	ctx, cancel, ok := queryCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	trips, rep, err := s.db.QueryNearestCtx(ctx, x, y, k)
	respond(w, trips, rep, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	snap := s.db.Engine().Store().Stats().Snapshot()
	cs := s.db.Engine().CacheStats()
	ps := s.db.Engine().PlanCacheStats()
	rs := s.db.Engine().Store().ReplicaStats()
	bcs := s.db.Engine().Store().BlockCacheStats()
	sloMS, slo := s.db.Engine().SLOSnapshot()
	disk := s.db.Engine().Store().PersistStats()
	writeJSON(w, map[string]any{
		"uptime_seconds": time.Since(s.started).Seconds(),
		"version":        buildVersion(),
		"go_version":     runtime.Version(),
		"trajectories":   s.db.Len(),
		"rows_scanned":   snap.RowsScanned,
		"rows_returned":  snap.RowsReturned,
		"seeks":          snap.Seeks,
		"rpcs":           snap.RPCs,
		"bytes_returned": snap.BytesReturned,
		"region_splits":  snap.RegionSplits,
		"failed_rpcs":    snap.FailedRPCs,
		"retried_rpcs":   snap.RetriedRPCs,
		"failed_regions": snap.FailedRegions,
		"partial_scans":  snap.PartialScans,

		"flushes":             snap.Flushes,
		"compactions":         snap.Compactions,
		"subcompactions":      snap.SubCompactions,
		"bytes_flushed":       snap.BytesFlushed,
		"bytes_compacted":     snap.BytesCompacted,
		"compact_stall_ns":    snap.CompactStallNanos,
		"compact_queue_depth": s.db.Engine().Store().CompactQueueDepth(),

		"wal_segments":         disk.WALSegments,
		"wal_tail_bytes":       disk.WALTailBytes,
		"wal_segments_dropped": disk.SegmentsDropped,
		"forced_seals":         disk.ForcedSeals,
		"run_files":            disk.RunFiles,
		"run_file_bytes":       disk.RunFileBytes,
		"resident_run_bytes":   s.db.Engine().Store().ResidentRunBytes(),
		"runs_per_region_max":  s.db.Engine().Store().MaxRunsPerRegion(),
		"recover_seconds":      s.db.Engine().RecoverDuration().Seconds(),
		"persist_errors":       disk.Errors,

		"replicas":          s.db.Engine().Store().Replicas(),
		"replica_followers": rs.Followers,
		"replicas_down":     rs.Down,
		"replica_lag_ms":    rs.MaxLagMS,
		"failovers":         snap.Failovers,
		"follower_reads":    snap.FollowerReads,
		"ship_frames":       snap.ShipFrames,
		"ship_rejects":      snap.ShipRejects,
		"catchup_tail":      snap.CatchupTail,
		"catchup_snapshot":  snap.CatchupSnapshots,

		"block_cache_hits":       snap.BlockCacheHits,
		"block_cache_misses":     snap.BlockCacheMisses,
		"block_cache_evictions":  bcs.Evictions,
		"block_cache_used_bytes": s.db.Engine().Store().BlockCacheUsedBytes(),
		"block_read_bytes":       snap.BlockReadBytes,
		"bloom_checks":           snap.BloomChecks,
		"bloom_negatives":        snap.BloomNegatives,
		"bloom_false_positives":  snap.BloomFalsePositives,
		"catchup_ship_bytes":     snap.CatchupShipBytes,
		"fence_blocks_skipped":   snap.BlocksSkipped,
		"fence_blocks_accepted":  snap.BlocksAcceptedWhole,
		"fence_bytes_read":       snap.FenceBytesRead,

		"reencodes":    s.db.Engine().Reencodes(),
		"cache_hits":   cs.Hits,
		"cache_misses": cs.Misses,
		"cache_evicts": cs.Evictions,
		"dir_loads":    cs.DirLoads,
		"shared_loads": cs.SharedLoads,
		"plan_hits":    ps.Hits,
		"plan_misses":  ps.Misses,
		"plan_entries": ps.Entries,

		"slo_objective_ms": sloMS,
		"slo":              slo,
		"bg_jobs_running":  s.db.Engine().Jobs().RunningCount(),
		"scan_queue_depth": s.db.Engine().Store().ScanQueueDepth(),
	})
}

// ------------------------------------------------------------- helpers ---

// queryCtx derives the query context from the optional ?deadline_ms= and
// ?max_staleness_ms= parameters. With a deadline set, queries that run out
// of time respond 200 with partial=true instead of failing; with a staleness
// bound set, region scans may be served by follower replicas no further than
// that many milliseconds behind the leader (requires replication). The
// returned cancel must be called.
func queryCtx(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if raw := r.URL.Query().Get("max_staleness_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, "max_staleness_ms must be a non-negative integer, got %q", raw)
			return nil, nil, false
		}
		ctx = tman.WithMaxStaleness(ctx, time.Duration(ms)*time.Millisecond)
	}
	if raw := r.URL.Query().Get("deadline_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			httpError(w, http.StatusBadRequest, "deadline_ms must be a positive integer, got %q", raw)
			return nil, nil, false
		}
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	}
	return ctx, cancel, true
}

func respond(w http.ResponseWriter, trips []*tman.Trajectory, rep tman.Report, err error) {
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "query failed: %v", err)
		return
	}
	out := QueryResponse{
		Count:         len(trips),
		Plan:          rep.Plan,
		Candidates:    rep.Candidates,
		ElapsedMs:     float64(rep.Elapsed.Microseconds()) / 1000,
		Partial:       rep.Partial,
		RetriedRPCs:   rep.RetriedRPCs,
		FailedRegions: rep.FailedRegions,
		FollowerReads: rep.FollowerReads,
	}
	for _, t := range trips {
		out.Trajectories = append(out.Trajectories, fromModel(t))
	}
	writeJSON(w, out)
}

func timeRangeParam(w http.ResponseWriter, r *http.Request) (tman.TimeRange, bool) {
	start, err1 := strconv.ParseInt(r.URL.Query().Get("start"), 10, 64)
	end, err2 := strconv.ParseInt(r.URL.Query().Get("end"), 10, 64)
	if err1 != nil || err2 != nil || end < start {
		httpError(w, http.StatusBadRequest, "need start <= end (unix ms)")
		return tman.TimeRange{}, false
	}
	return tman.TimeRange{Start: start, End: end}, true
}

func rectParam(w http.ResponseWriter, r *http.Request) (tman.Rect, bool) {
	get := func(k string) (float64, error) { return strconv.ParseFloat(r.URL.Query().Get(k), 64) }
	minx, e1 := get("minx")
	miny, e2 := get("miny")
	maxx, e3 := get("maxx")
	maxy, e4 := get("maxy")
	if e1 != nil || e2 != nil || e3 != nil || e4 != nil || maxx < minx || maxy < miny {
		httpError(w, http.StatusBadRequest, "need minx <= maxx, miny <= maxy")
		return tman.Rect{}, false
	}
	return tman.Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
