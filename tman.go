// Package tman is a high-performance trajectory data management system
// built on an embedded ordered key-value store — a Go implementation of
// "TMan: A High-Performance Trajectory Data Management System Based on
// Key-Value Stores" (He et al., ICDE 2024).
//
// TMan stores each trajectory intact in a single primary-table row and
// indexes it with:
//
//   - the TR index — time ranges become single integers with no redundant
//     storage (Eq. 1 of the paper);
//   - the TShape index — irregular trajectory shapes become combinations
//     of quad-tree cells inside "enlarged elements", with shape codes
//     optimized so similar shapes get adjacent values (a TSP solved by
//     greedy or genetic search);
//   - IDT and ST composites for ID-temporal and spatio-temporal queries.
//
// Six query types are supported: temporal range, spatial range,
// ID-temporal, spatio-temporal range, threshold similarity and top-k
// similarity (discrete Fréchet, DTW, Hausdorff).
//
// # Quick start
//
//	db, err := tman.Open(tman.Beijing)
//	if err != nil { ... }
//	db.Put(&tman.Trajectory{
//		OID: "taxi-42", TID: "trip-0001",
//		Points: []tman.Point{{X: 116.39, Y: 39.91, T: 1700000000000}, ...},
//	})
//	trips, rep, err := db.QuerySpace(tman.Rect{
//		MinX: 116.3, MinY: 39.8, MaxX: 116.5, MaxY: 40.0,
//	})
//	fmt.Println(len(trips), "trips,", rep.Candidates, "candidates scanned")
package tman

import (
	"context"
	"time"

	"github.com/tman-db/tman/internal/engine"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/index/tshape"
	"github.com/tman-db/tman/internal/kvstore"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/similarity"
)

// Core data types, re-exported for the public API.
type (
	// Point is a single GPS observation: planar X/Y (typically lng/lat
	// degrees) and a Unix-millisecond timestamp.
	Point = model.Point
	// Trajectory is a time-ordered point sequence of one moving object.
	Trajectory = model.Trajectory
	// TimeRange is a closed interval in Unix milliseconds.
	TimeRange = model.TimeRange
	// Rect is an axis-aligned rectangle in dataset coordinates.
	Rect = geo.Rect
	// Report describes an executed query (plan, candidates, timings).
	Report = engine.QueryReport
	// Measure selects a similarity distance function.
	Measure = similarity.Measure
	// ShapeEncoding selects the TShape shape-code optimization.
	ShapeEncoding = tshape.Encoding
	// FaultConfig describes the deterministic fault model injected into the
	// simulated cluster (seeded transient RPC failures, slow nodes, region
	// unavailability windows after splits/compactions).
	FaultConfig = kvstore.FaultConfig
	// RetryPolicy controls client RPC retries: capped attempts and
	// exponential backoff with jitter, charged analytically (no sleeping).
	RetryPolicy = kvstore.RetryPolicy
)

// Similarity measures.
const (
	Frechet   = similarity.Frechet
	DTW       = similarity.DTW
	Hausdorff = similarity.Hausdorff
)

// Shape-code encodings (paper Section IV-A2(3)).
const (
	EncodingBitmap  = tshape.EncodingBitmap
	EncodingGreedy  = tshape.EncodingGreedy
	EncodingGenetic = tshape.EncodingGenetic
)

// Beijing is the TDrive dataset boundary from the paper, a convenient
// default region for examples.
var Beijing = Rect{MinX: 110, MinY: 35, MaxX: 125, MaxY: 45}

// Option customizes a DB at Open time.
type Option func(*engine.Config)

// WithTimePeriod sets the TR index period length (milliseconds) and the
// maximum periods per time bin N. The paper pairs 1 hour with N = 48.
func WithTimePeriod(periodMillis int64, n int) Option {
	return func(c *engine.Config) {
		c.PeriodMillis = periodMillis
		c.N = n
	}
}

// WithShapeGrid sets the TShape enlarged-element dimensions α×β and the
// maximum quad-tree resolution g.
func WithShapeGrid(alpha, beta, g int) Option {
	return func(c *engine.Config) {
		c.Alpha = alpha
		c.Beta = beta
		c.G = g
	}
}

// WithShapeEncoding selects the shape-code optimization method.
func WithShapeEncoding(enc ShapeEncoding) Option {
	return func(c *engine.Config) { c.Encoding = enc }
}

// WithShards sets the hash-shard count used to spread rows across regions.
func WithShards(n int) Option {
	return func(c *engine.Config) { c.Shards = n }
}

// WithIndexCache toggles the shape directory + LFU index cache and sets
// its capacity (element directories held in memory).
func WithIndexCache(enabled bool, capacity int) Option {
	return func(c *engine.Config) {
		c.UseIndexCache = enabled
		if capacity > 0 {
			c.CacheCapacity = capacity
		}
	}
}

// WithPushDown toggles store-side filter evaluation (on by default).
func WithPushDown(enabled bool) Option {
	return func(c *engine.Config) { c.PushDown = enabled }
}

// WithDataDir makes the database durable: every mutation is appended to a
// segmented write-ahead log under dir before it is applied, memtables are
// flushed into immutable run files named by a manifest, and log segments
// are unlinked once their rows are in run files — so the log stays bounded
// on its own and Open recovers by loading the run files and replaying only
// the log tail. An acknowledged write survives a killed process; after
// DB.Checkpoint or DB.Close (which fsync) it also survives power loss.
func WithDataDir(dir string) Option {
	return func(c *engine.Config) { c.DataDir = dir }
}

// WithPrimaryTemporal keys the primary table by the temporal index instead
// of the spatial one — the right choice for deployments dominated by
// temporal range queries (paper Section IV-B).
func WithPrimaryTemporal() Option {
	return func(c *engine.Config) { c.Primary = engine.KindTR }
}

// WithFaultInjection enables the deterministic fault model on the simulated
// cluster. Queries issued through the Ctx methods retry transient failures
// per the retry policy and degrade to partial results on deadline expiry.
func WithFaultInjection(fc FaultConfig) Option {
	return func(c *engine.Config) { c.KV.Fault = fc }
}

// WithRetryPolicy overrides the client RPC retry policy (attempts, backoff
// bounds, jitter). Zero fields fall back to DefaultRetryPolicy values.
func WithRetryPolicy(rp RetryPolicy) Option {
	return func(c *engine.Config) { c.KV.Retry = rp }
}

// WithReplication gives every region n copies (leader included) on distinct
// simulated nodes, kept in sync by synchronous WAL-frame shipping. A node
// death (Engine.Store().KillNode) promotes a follower deterministically with
// epoch fencing, so acked writes survive any single node loss while one
// follower is live; reads can opt into bounded-staleness follower serving
// with WithMaxStaleness. n <= 1 disables replication.
func WithReplication(n int) Option {
	return func(c *engine.Config) { c.KV.Replicas = n }
}

// WithMaxStaleness lets queries under ctx be served by follower replicas at
// most maxStaleness behind the leader — the follower-read knob exposed over
// HTTP as ?max_staleness_ms=. Zero accepts only fully caught-up followers; a
// negative duration pins reads to the leader (the default without this
// option). Replication must be enabled for it to have any effect.
func WithMaxStaleness(ctx context.Context, maxStaleness time.Duration) context.Context {
	return kvstore.WithReadPref(ctx, kvstore.ReadPref{MaxStalenessMS: int64(maxStaleness / time.Millisecond)})
}

// WithBlockTuning adjusts the block-based run format of the underlying
// store: blockBytes is the target encoded block size (0 keeps the 4 KiB
// default, minimum 512), bloomBits the per-key filter density (0 keeps 10,
// negative disables bloom filters), and cacheBytes the store-wide decoded
// block cache capacity (0 keeps 32 MiB, negative disables caching so every
// block read decodes — and is charged — afresh).
func WithBlockTuning(blockBytes, bloomBits, cacheBytes int) Option {
	return func(c *engine.Config) {
		c.KV.BlockSizeBytes = blockBytes
		c.KV.BloomBitsPerKey = bloomBits
		c.KV.BlockCacheBytes = cacheBytes
	}
}

// WithCompactionTuning adjusts the tiered compaction scheduler of the
// underlying store: fanIn is how many consecutive same-size-tier runs a
// region accumulates before they merge (0 keeps the default 4, minimum 2 —
// higher defers merging and lowers write amplification at the cost of more
// runs per read), and subRanges is the number of key-range partitions a
// large merge is split into for parallel execution on the flusher pool
// (0 keeps 4, 1 disables partitioning).
func WithCompactionTuning(fanIn, subRanges int) Option {
	return func(c *engine.Config) {
		c.KV.CompactFanIn = fanIn
		c.KV.CompactSubRanges = subRanges
	}
}

// WithTraceSampling records a full trace-span tree for the given fraction
// of queries (0..1) into the engine's trace ring, inspectable through the
// HTTP /trace endpoint. 0 (the default) disables sampling; traced queries
// requested explicitly through /trace are always recorded.
func WithTraceSampling(rate float64) Option {
	return func(c *engine.Config) { c.TraceSampleRate = rate }
}

// WithSLO sets the per-query latency objective every query type is tracked
// against, and the allowed late fraction (the error budget — 0 keeps the
// 0.01 default, i.e. a p99 objective). Queries finishing within the
// objective count as "good", over it as "late"; burn-rate gauges report
// late-fraction over budget on trailing windows. targetMillis 0 keeps the
// 250ms default; negative disables SLO tracking (the series stay at zero).
func WithSLO(targetMillis int, budget float64) Option {
	return func(c *engine.Config) {
		c.SLOTargetMillis = targetMillis
		c.SLOBudget = budget
	}
}

// DB is a TMan database instance.
type DB struct {
	eng *engine.Engine
}

// Open creates a TMan database over the given spatial boundary. The
// boundary must enclose all data; points outside are clamped for indexing
// (their stored coordinates are exact).
func Open(boundary Rect, opts ...Option) (*DB, error) {
	cfg := engine.DefaultConfig(boundary)
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Put stores one trajectory. The trajectory must have a TID, at least one
// point, and time-ordered points (use Trajectory.SortByTime to repair).
func (db *DB) Put(t *Trajectory) error { return db.eng.Put(t) }

// PutBatch stores many trajectories through the batched write path: all
// inputs are validated up front (an invalid trajectory rejects the whole
// batch before anything is written), row values are encoded in parallel,
// and rows land as one grouped multi-put per underlying KV table — one
// cost-model RPC per region batch and a single WAL group commit per table.
// For bulk ingest this is substantially faster than calling Put in a loop.
func (db *DB) PutBatch(ts []*Trajectory) error { return db.eng.BatchPut(ts) }

// Delete removes a trajectory previously stored (typically one read back
// from a query).
func (db *DB) Delete(t *Trajectory) error { return db.eng.Delete(t) }

// Len returns the number of stored trajectories.
func (db *DB) Len() int64 { return db.eng.Rows() }

// QueryTimeRange returns all trajectories whose time range intersects q.
func (db *DB) QueryTimeRange(q TimeRange) ([]*Trajectory, Report, error) {
	return db.eng.TemporalRangeQuery(q)
}

// QueryTimeRangeCtx is QueryTimeRange under a context: a deadline degrades
// the answer to a correct subset with Report.Partial set instead of
// failing; cancellation aborts with an error; transient cluster faults are
// retried per the retry policy.
func (db *DB) QueryTimeRangeCtx(ctx context.Context, q TimeRange) ([]*Trajectory, Report, error) {
	return db.eng.TemporalRangeQueryCtx(ctx, q)
}

// QuerySpace returns all trajectories intersecting the window (dataset
// coordinates).
func (db *DB) QuerySpace(sr Rect) ([]*Trajectory, Report, error) {
	return db.eng.SpatialRangeQuery(sr)
}

// QuerySpaceCtx is QuerySpace under a context (deadline → partial results,
// cancel → error, faults retried).
func (db *DB) QuerySpaceCtx(ctx context.Context, sr Rect) ([]*Trajectory, Report, error) {
	return db.eng.SpatialRangeQueryCtx(ctx, sr)
}

// QueryObject returns the trajectories of one object intersecting q.
func (db *DB) QueryObject(oid string, q TimeRange) ([]*Trajectory, Report, error) {
	return db.eng.IDTemporalQuery(oid, q)
}

// QueryObjectCtx is QueryObject under a context (deadline → partial
// results, cancel → error, faults retried).
func (db *DB) QueryObjectCtx(ctx context.Context, oid string, q TimeRange) ([]*Trajectory, Report, error) {
	return db.eng.IDTemporalQueryCtx(ctx, oid, q)
}

// QuerySpaceTime returns trajectories intersecting both the window and the
// time range; the cost-based optimizer picks the execution plan.
func (db *DB) QuerySpaceTime(sr Rect, q TimeRange) ([]*Trajectory, Report, error) {
	return db.eng.SpatioTemporalQuery(sr, q)
}

// QuerySpaceTimeCtx is QuerySpaceTime under a context (deadline → partial
// results, cancel → error, faults retried).
func (db *DB) QuerySpaceTimeCtx(ctx context.Context, sr Rect, q TimeRange) ([]*Trajectory, Report, error) {
	return db.eng.SpatioTemporalQueryCtx(ctx, sr, q)
}

// QuerySimilarThreshold returns all trajectories within theta of the query
// under the chosen measure. theta is a fraction of the boundary extent
// (normalized units), matching the paper's θ convention.
func (db *DB) QuerySimilarThreshold(q *Trajectory, m Measure, theta float64) ([]*Trajectory, Report, error) {
	return db.eng.SimilarityThresholdQuery(q, m, theta)
}

// QuerySimilarThresholdCtx is QuerySimilarThreshold under a context
// (deadline → partial results, cancel → error, faults retried).
func (db *DB) QuerySimilarThresholdCtx(ctx context.Context, q *Trajectory, m Measure, theta float64) ([]*Trajectory, Report, error) {
	return db.eng.SimilarityThresholdQueryCtx(ctx, q, m, theta)
}

// QuerySimilarTopK returns the k trajectories most similar to the query.
func (db *DB) QuerySimilarTopK(q *Trajectory, m Measure, k int) ([]*Trajectory, Report, error) {
	return db.eng.SimilarityTopKQuery(q, m, k)
}

// QuerySimilarTopKCtx is QuerySimilarTopK under a context; on deadline
// expiry the best results found so far are returned with Report.Partial.
func (db *DB) QuerySimilarTopKCtx(ctx context.Context, q *Trajectory, m Measure, k int) ([]*Trajectory, Report, error) {
	return db.eng.SimilarityTopKQueryCtx(ctx, q, m, k)
}

// QueryNearest returns the k trajectories passing closest to the point
// (x, y) in dataset coordinates — e.g. "which trips went by this address".
func (db *DB) QueryNearest(x, y float64, k int) ([]*Trajectory, Report, error) {
	return db.eng.NearestQuery(x, y, k)
}

// QueryNearestCtx is QueryNearest under a context; on deadline expiry the
// best neighbours found so far are returned with Report.Partial.
func (db *DB) QueryNearestCtx(ctx context.Context, x, y float64, k int) ([]*Trajectory, Report, error) {
	return db.eng.NearestQueryCtx(ctx, x, y, k)
}

// Close fsyncs and closes a durable database's files and returns the first
// persistence error it met, if any (a no-op for in-memory databases).
func (db *DB) Close() error { return db.eng.Close() }

// Checkpoint flushes every memtable of a durable database into run files,
// fsyncs run files, manifest and log, and drops the log segments now
// covered, so the next Open replays (almost) nothing. It may run beside
// writers. It returns an error for in-memory databases.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Engine exposes the underlying engine for advanced use (statistics,
// benchmarks, ablations).
func (db *DB) Engine() *engine.Engine { return db.eng }
