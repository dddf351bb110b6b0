package engine

import (
	"context"
	"time"

	"github.com/tman-db/tman/internal/kvstore"
	"github.com/tman-db/tman/internal/obs"
)

// Query-type labels used by the per-type metric series and span names.
const (
	qTemporal  = "temporal"
	qSpatial   = "spatial"
	qSpaceTime = "spacetime"
	qObject    = "object"
	qSimilar   = "similar"
	qNearest   = "nearest"
)

var queryTypes = []string{qTemporal, qSpatial, qSpaceTime, qObject, qSimilar, qNearest}

// jobKinds is the fixed set of background-job kinds the tman_bg_* series
// are registered for (matching the kinds kvstore records).
var jobKinds = []string{"flush", "compact", "catchup", "split", "failover", "recover"}

// engineMetrics is the engine's registration into the obs layer: the shared
// registry every subsystem exports through, per-query-type latency
// histograms and counters, and the trace sampler + ring.
//
// Counters that already exist as a subsystem's own atomics (kvstore.Stats,
// cache stats, plan-cache stats) are mirrored as scrape-time func metrics —
// the hot paths keep their single-atomic-add cost and nothing is counted
// twice.
type engineMetrics struct {
	reg *obs.Registry

	queriesTotal    map[string]*obs.Counter
	queryLatency    map[string]*obs.Histogram
	queriesPartial  *obs.Counter
	queryCandidates *obs.Histogram

	sampler *obs.Sampler   // nil when TraceSampleRate is 0 (tracing off)
	traces  *obs.TraceRing // most recent sampled traces

	// slo holds one latency-objective tracker per query type (nil trackers
	// when SLO tracking is disabled; every method is nil-safe).
	slo       map[string]*obs.SLOTracker
	sloBudget float64
}

// newEngineMetrics builds the registry and registers every engine-side and
// store-side series.
func newEngineMetrics(e *Engine) *engineMetrics {
	reg := obs.NewRegistry()
	m := &engineMetrics{
		reg:          reg,
		queriesTotal: make(map[string]*obs.Counter, len(queryTypes)),
		queryLatency: make(map[string]*obs.Histogram, len(queryTypes)),
		sampler:      obs.NewSampler(e.cfg.TraceSampleRate),
		traces:       obs.NewTraceRing(32),
	}

	// --- kvstore: scan/write/fault counters mirrored from Stats ----------
	st := e.store.Stats()
	counter := func(name, help string, fn func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	counter("tman_store_rows_scanned_total", "live rows visited by region scanners (the paper's candidates metric)", st.RowsScanned.Load)
	counter("tman_store_rows_returned_total", "rows that passed push-down filters and were returned to the client", st.RowsReturned.Load)
	counter("tman_store_seeks_total", "scanner setups (one per region x range)", st.Seeks.Load)
	counter("tman_store_rpcs_total", "region RPCs charged by the cost model", st.RPCs.Load)
	counter("tman_store_bytes_returned_total", "value bytes transferred to clients", st.BytesReturned.Load)
	counter("tman_store_puts_total", "row puts applied", st.Puts.Load)
	counter("tman_store_deletes_total", "tombstones written", st.Deletes.Load)
	counter("tman_store_flushes_total", "memtable flushes into sorted runs", st.Flushes.Load)
	counter("tman_store_compactions_total", "run compactions", st.Compactions.Load)
	counter("tman_store_subcompactions_total", "key-range sub-merges fanned out by partitioned compactions", st.SubCompactions.Load)
	counter("tman_store_bytes_flushed_total", "raw key+value bytes memtable flushes wrote into first-level runs", st.BytesFlushed.Load)
	counter("tman_store_bytes_compacted_total", "raw bytes compactions re-read and rewrote (write-amplification numerator)", st.BytesCompacted.Load)
	reg.CounterFunc("tman_store_compact_stall_seconds_total", "wall time region flush paths spent inside compaction",
		func() float64 { return float64(st.CompactStallNanos.Load()) / 1e9 })
	reg.GaugeFunc("tman_store_compact_queue_depth", "regions awaiting flush plus unclaimed sub-compaction tasks",
		func() float64 { return float64(e.store.CompactQueueDepth()) })
	reg.GaugeFunc("tman_store_tier_runs", "logical sorted runs across all regions (tiered policy units)",
		func() float64 {
			n := 0
			for _, c := range e.store.TierRunHistogram() {
				n += c
			}
			return float64(n)
		})
	counter("tman_store_region_splits_total", "threshold-driven region splits", st.RegionSplits.Load)
	counter("tman_store_failed_rpcs_total", "injected per-attempt RPC faults", st.FailedRPCs.Load)
	counter("tman_store_retried_rpcs_total", "client RPC retries performed", st.RetriedRPCs.Load)
	counter("tman_store_failed_regions_total", "region tasks abandoned after retries/deadline", st.FailedRegions.Load)
	counter("tman_store_partial_scans_total", "scans that returned a partial result", st.PartialScans.Load)
	counter("tman_store_wal_appends_total", "WAL records appended (batch group commits count once)", st.WALAppends.Load)
	counter("tman_store_wal_syncs_total", "WAL fsyncs", st.WALSyncs.Load)
	reg.CounterFunc("tman_store_sim_io_seconds_total", "analytic cluster I/O time charged by the cost model",
		func() float64 { return float64(st.SimIONanos.Load()) / 1e9 })
	reg.CounterFunc("tman_store_backoff_seconds_total", "analytic retry backoff charged across client RPC paths",
		func() float64 { return float64(st.BackoffNanos.Load()) / 1e9 })
	reg.GaugeFunc("tman_store_regions", "regions across all tables",
		func() float64 { return float64(e.store.TotalRegions()) })

	// --- what is on disk: log tail, run files, and what a restart cost -----
	gauge := func(name, help string, fn func() float64) { reg.GaugeFunc(name, help, fn) }
	gauge("tman_wal_segments", "write-ahead log segments retained, the active one included",
		func() float64 { return float64(e.store.PersistStats().WALSegments) })
	gauge("tman_wal_tail_bytes", "bytes in the retained log segments: what a restart would replay",
		func() float64 { return float64(e.store.PersistStats().WALTailBytes) })
	gauge("tman_run_files", "run files named by the manifest",
		func() float64 { return float64(e.store.PersistStats().RunFiles) })
	gauge("tman_run_file_bytes", "bytes in the run files named by the manifest",
		func() float64 { return float64(e.store.PersistStats().RunFileBytes) })
	gauge("tman_resident_run_bytes", "memory held by runs: encoded blocks, sparse indexes and bloom filters",
		func() float64 { return float64(e.store.ResidentRunBytes()) })
	gauge("tman_runs_per_region_max", "deepest run stack of any region, in logical runs",
		func() float64 { return float64(e.store.MaxRunsPerRegion()) })
	gauge("tman_recover_seconds", "time the last start spent recovering: run-file load, log replay and engine state",
		func() float64 { return e.recoverDur.Seconds() })
	counter("tman_persist_errors_total", "failed log, run-file and manifest operations (the first stops all persistence)",
		func() int64 { return e.store.PersistStats().Errors })

	// --- replication: ship/catch-up/failover counters + health gauges ----
	counter("tman_failovers_total", "leader promotions after node death", st.Failovers.Load)
	counter("tman_follower_reads_total", "region scans served by follower replicas", st.FollowerReads.Load)
	counter("tman_replica_ship_frames_total", "leader->follower replication frames shipped", st.ShipFrames.Load)
	counter("tman_replica_ship_rejects_total", "replication frames rejected by followers (corrupt or fenced)", st.ShipRejects.Load)
	counter("tman_replica_catchup_tail_total", "follower catch-ups served from the retained log tail", st.CatchupTail.Load)
	counter("tman_replica_catchup_snapshot_total", "follower catch-ups rebuilt from a leader snapshot", st.CatchupSnapshots.Load)
	reg.GaugeFunc("tman_replica_lag", "worst live-follower staleness in milliseconds",
		func() float64 { return float64(e.store.ReplicaStats().MaxLagMS) })
	reg.GaugeFunc("tman_replica_followers", "follower replicas across all regions",
		func() float64 { return float64(e.store.ReplicaStats().Followers) })
	reg.GaugeFunc("tman_replicas_down", "follower replicas currently down",
		func() float64 { return float64(e.store.ReplicaStats().Down) })

	// --- block runs: cache, physical reads, bloom filters ----------------
	counter("tman_block_cache_hits_total", "block-cache hits on the read path (no physical read charged)", st.BlockCacheHits.Load)
	counter("tman_block_cache_misses_total", "block fetches that decoded an encoded block (charged reads)", st.BlockCacheMisses.Load)
	counter("tman_block_read_bytes_total", "encoded block bytes physically read on cache misses", st.BlockReadBytes.Load)
	counter("tman_block_cache_evictions_total", "decoded blocks evicted under the byte cap",
		func() int64 { return e.store.BlockCacheStats().Evictions })
	reg.GaugeFunc("tman_block_cache_used_bytes", "decoded block bytes resident in the shared cache",
		func() float64 { return float64(e.store.BlockCacheUsedBytes()) })
	counter("tman_bloom_checks_total", "point gets screened against a run bloom filter", st.BloomChecks.Load)
	counter("tman_bloom_negatives_total", "point gets a bloom filter proved absent (no block touched)", st.BloomNegatives.Load)
	counter("tman_bloom_false_positives_total", "bloom passes where the run did not hold the key", st.BloomFalsePositives.Load)
	counter("tman_replica_catchup_ship_bytes_total", "encoded run bytes shipped by snapshot catch-ups", st.CatchupShipBytes.Load)
	counter("tman_fence_blocks_skipped_total", "run blocks skipped unread by fence verdicts", st.BlocksSkipped.Load)
	counter("tman_fence_blocks_accepted_total", "run blocks decoded without per-row filtering (fence inside the query)", st.BlocksAcceptedWhole.Load)
	counter("tman_fence_bytes_read_total", "fence metadata bytes consulted by pruning scans", st.FenceBytesRead.Load)

	// --- engine: dataset + shape-maintenance state -----------------------
	reg.GaugeFunc("tman_engine_trajectories", "stored trajectories",
		func() float64 { return float64(e.rows.Load()) })
	counter("tman_engine_reencodes_total", "TShape element re-encode passes", e.reencodes.Load)

	// --- index cache + plan cache ----------------------------------------
	counter("tman_cache_hits_total", "index-cache hits", func() int64 { return e.CacheStats().Hits })
	counter("tman_cache_misses_total", "index-cache misses", func() int64 { return e.CacheStats().Misses })
	counter("tman_cache_evictions_total", "index-cache evictions", func() int64 { return e.CacheStats().Evictions })
	counter("tman_cache_dir_loads_total", "directory loads performed (singleflight leaders)", func() int64 { return e.CacheStats().DirLoads })
	counter("tman_cache_shared_loads_total", "directory loads deduplicated by singleflight", func() int64 { return e.CacheStats().SharedLoads })
	counter("tman_plan_cache_hits_total", "plan-cache hits", func() int64 { return e.PlanCacheStats().Hits })
	counter("tman_plan_cache_misses_total", "plan-cache misses", func() int64 { return e.PlanCacheStats().Misses })
	reg.GaugeFunc("tman_plan_cache_entries", "memoized query plans resident",
		func() float64 { return float64(e.PlanCacheStats().Entries) })

	// --- per-query-type latency + volume ---------------------------------
	for _, qt := range queryTypes {
		m.queriesTotal[qt] = reg.Counter(
			`tman_queries_total{type="`+qt+`"}`, "queries executed by type")
		m.queryLatency[qt] = reg.Histogram(
			`tman_query_duration_seconds{type="`+qt+`"}`,
			"query latency by type (wall + analytic cluster I/O)", obs.DefBuckets)
	}
	m.queriesPartial = reg.Counter("tman_queries_partial_total",
		"queries that degraded to a partial result")
	m.queryCandidates = reg.Histogram("tman_query_candidates",
		"candidates visited per query (the paper's retrievals metric)", obs.SizeBuckets)

	// --- background jobs: always-on tracing + per-kind resource ledgers ---
	jobs := e.store.Jobs()
	for _, kind := range jobKinds {
		kind := kind
		counter(`tman_bg_jobs_total{kind="`+kind+`"}`,
			"background jobs completed by kind", func() int64 { return jobs.KindStats(kind).Jobs })
		counter(`tman_bg_bytes_read_total{kind="`+kind+`"}`,
			"bytes background jobs read by kind", func() int64 { return jobs.KindStats(kind).BytesRead })
		counter(`tman_bg_bytes_written_total{kind="`+kind+`"}`,
			"bytes background jobs wrote by kind", func() int64 { return jobs.KindStats(kind).BytesWritten })
		reg.CounterFunc(`tman_bg_seconds_total{kind="`+kind+`"}`,
			"wall time background jobs ran by kind",
			func() float64 { return float64(jobs.KindStats(kind).TotalNanos) / 1e9 })
		reg.CounterFunc(`tman_bg_stall_seconds_total{kind="`+kind+`"}`,
			"time background jobs held locks foreground work waited on, by kind",
			func() float64 { return float64(jobs.KindStats(kind).StallNanos) / 1e9 })
	}
	reg.GaugeFunc("tman_bg_jobs_running", "background jobs currently in flight",
		func() float64 { return float64(jobs.RunningCount()) })
	reg.GaugeFunc("tman_scan_queue_depth", "scan/write executor tasks queued but not started",
		func() float64 { return float64(e.store.ScanQueueDepth()) })

	// --- per-region hotness (top-1 gauges; full list on /debug/jobs) ------
	reg.GaugeFunc("tman_region_hottest_rows", "rows visited on the hottest region (lifetime)",
		func() float64 {
			if hot := e.store.RegionHotness(1); len(hot) > 0 {
				return float64(hot[0].Rows)
			}
			return 0
		})
	reg.GaugeFunc("tman_region_hotness_share", "hottest region's share of all rows visited",
		func() float64 {
			hot := e.store.RegionHotness(0)
			var total int64
			for _, h := range hot {
				total += h.Rows
			}
			if len(hot) == 0 || total == 0 {
				return 0
			}
			return float64(hot[0].Rows) / float64(total)
		})

	// --- SLO layer: per-type good/late counters + windowed burn rates -----
	m.sloBudget = e.cfg.SLOBudget
	m.slo = make(map[string]*obs.SLOTracker, len(queryTypes))
	objective := time.Duration(e.cfg.SLOTargetMillis) * time.Millisecond
	for _, qt := range queryTypes {
		var tr *obs.SLOTracker
		if e.cfg.SLOTargetMillis > 0 {
			tr = obs.NewSLOTracker(objective, e.cfg.SLOBudget, 10*time.Second, 30)
		}
		m.slo[qt] = tr
		counter(`tman_slo_good_total{type="`+qt+`"}`,
			"queries that met the latency objective, by type",
			func() int64 { good, _ := tr.Totals(); return good })
		counter(`tman_slo_late_total{type="`+qt+`"}`,
			"queries that missed the latency objective, by type",
			func() int64 { _, late := tr.Totals(); return late })
	}
	reg.GaugeFunc("tman_slo_objective_seconds", "latency objective queries are classified against",
		func() float64 { return objective.Seconds() })
	burn := func(w time.Duration) float64 {
		var good, late int64
		for _, tr := range m.slo {
			g, l := tr.Window(w)
			good += g
			late += l
		}
		if good+late == 0 {
			return 0
		}
		return (float64(late) / float64(good+late)) / m.sloBudget
	}
	reg.GaugeFunc("tman_slo_burn_rate_1m", "trailing-1m error-budget burn rate across all query types",
		func() float64 { return burn(time.Minute) })
	reg.GaugeFunc("tman_slo_burn_rate_5m", "trailing-5m error-budget burn rate across all query types",
		func() float64 { return burn(5 * time.Minute) })
	return m
}

// Jobs exposes the store's background-job recorder (for /debug/jobs and for
// attaching overlapping background spans to forced traces).
func (e *Engine) Jobs() *obs.JobRecorder { return e.store.Jobs() }

// RegionHotness returns the top-k regions by rows visited, hottest first.
func (e *Engine) RegionHotness(k int) []kvstore.RegionHot { return e.store.RegionHotness(k) }

// SLOStatus is one query type's SLO standing for /stats.
type SLOStatus struct {
	Good       int64   `json:"good"`
	Late       int64   `json:"late"`
	BurnRate1M float64 `json:"burn_rate_1m"`
}

// SLOSnapshot reports per-type SLO standing plus the objective in millis.
func (e *Engine) SLOSnapshot() (objectiveMS int64, byType map[string]SLOStatus) {
	byType = make(map[string]SLOStatus, len(queryTypes))
	for _, qt := range queryTypes {
		tr := e.met.slo[qt]
		good, late := tr.Totals()
		byType[qt] = SLOStatus{Good: good, Late: late, BurnRate1M: tr.BurnRate(time.Minute)}
		objectiveMS = tr.Objective().Milliseconds()
	}
	return objectiveMS, byType
}

// Metrics returns the engine's metrics registry — the single exposition
// point for store, cache, plan-cache and query series. httpapi serves it at
// /metrics and registers its own request series into it.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// LastTrace returns the most recent sampled query trace (nil when tracing
// is disabled or nothing was sampled yet).
func (e *Engine) LastTrace() *obs.Span { return e.met.traces.Last() }

// beginQuery opens the observability scope of one query: if the caller's
// context already carries a span (the /trace endpoint, or a traced parent
// query), the query becomes a child span; otherwise the sampler decides
// whether this query gets a fresh root trace. Untraced queries pay one
// context lookup and, at most, one atomic add in the sampler.
func (e *Engine) beginQuery(ctx context.Context, qtype string) (context.Context, *obs.Span, bool) {
	if parent := obs.SpanFrom(ctx); parent != nil {
		sp := parent.StartChild("query:" + qtype)
		return obs.ContextWithSpan(ctx, sp), sp, false
	}
	if e.met.sampler.Sample() {
		sp := obs.NewSpan("query:" + qtype)
		return obs.ContextWithSpan(ctx, sp), sp, true
	}
	return ctx, nil, false
}

// endQuery records the query's outcome: per-type counters and latency
// histograms always; span attributes and the trace ring only when traced.
// The span is closed with the report's elapsed time (wall + analytic I/O),
// so a trace's root duration equals the latency the client was told.
func (e *Engine) endQuery(qtype string, sp *obs.Span, sampled bool, rep *QueryReport) {
	m := e.met
	m.queriesTotal[qtype].Inc()
	m.queryLatency[qtype].ObserveDuration(int64(rep.Elapsed))
	m.queryCandidates.Observe(float64(rep.Candidates))
	m.slo[qtype].Observe(rep.Elapsed)
	if rep.Partial {
		m.queriesPartial.Inc()
	}
	if sp == nil {
		return
	}
	sp.Add("candidates", rep.Candidates)
	sp.Add("results", int64(rep.Results))
	sp.Add("windows", int64(rep.Windows))
	sp.Add("retried_rpcs", rep.RetriedRPCs)
	sp.Add("failed_regions", int64(rep.FailedRegions))
	if rep.FollowerReads > 0 {
		sp.Add("follower_reads", rep.FollowerReads)
	}
	sp.Add("sim_io_ns", rep.Store.SimIONanos)
	if rep.Partial {
		sp.Add("partial", 1)
	}
	sp.EndWith(rep.Elapsed)
	if sampled {
		m.traces.Add(sp)
	}
}
