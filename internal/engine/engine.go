package engine

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tman-db/tman/internal/cache"
	"github.com/tman-db/tman/internal/codec"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/index/idt"
	"github.com/tman-db/tman/internal/index/st"
	"github.com/tman-db/tman/internal/index/tr"
	"github.com/tman-db/tman/internal/index/tshape"
	"github.com/tman-db/tman/internal/index/xz2"
	"github.com/tman-db/tman/internal/index/xzt"
	"github.com/tman-db/tman/internal/kvstore"
	"github.com/tman-db/tman/internal/model"
)

// Table names within the KV store.
const (
	tablePrimary   = "primary"
	tableTR        = "sec_tr"
	tableSP        = "sec_sp"
	tableIDT       = "sec_idt"
	tableST        = "sec_st"
	tableShapeDir  = "shapedir"
	tableBufShapes = "bufshapes"
	tableMeta      = "meta"
)

// Engine is the TMan storage and query engine over an embedded KV store.
type Engine struct {
	cfg   Config
	store *kvstore.Store
	space *geo.Space

	trIdx  *tr.Index
	xztIdx *xzt.Index
	tsIdx  *tshape.Index
	xzIdx  *xz2.Index

	primary  *kvstore.Table
	trTable  *kvstore.Table
	spTable  *kvstore.Table // spatial secondary, used when the primary is temporal
	idtTable *kvstore.Table
	stTable  *kvstore.Table
	dirTable *kvstore.Table
	bufTable *kvstore.Table // persisted buffer-shape state (recovery)
	meta     *kvstore.Table

	icache *cache.IndexCache
	buffer *cache.BufferShapeCache
	plans  *planCache // memoized query ranges; nil when disabled

	// rangeWorkers is the worker budget for parallel TShape element
	// enumeration (the store's scan parallelism).
	rangeWorkers int

	reencodeMu sync.Mutex // serializes per-element re-encoding
	rows       atomic.Int64
	reencodes  atomic.Int64

	// Observed TR value extent, used by the CBO's temporal selectivity
	// estimate.
	minTR, maxTR atomic.Int64
	trSeen       atomic.Bool

	met *engineMetrics

	// recoverDur is how long New took to bring a durable engine back: the
	// store's manifest + run-file load, its log replay, and recoverState.
	// Zero on an in-memory engine.
	recoverDur time.Duration

	// crashHook, when set (tests only), runs at the named boundaries of a
	// re-encode pass; a crash test copies the data directory from it.
	crashHook func(point string)
}

// New creates an engine with its own KV store. With Config.DataDir set the
// store is durable and any previous state under that directory is
// recovered.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space, err := geo.NewSpace(cfg.Boundary)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, space: space}

	e.trIdx, err = tr.New(cfg.PeriodMillis, cfg.N)
	if err != nil {
		return nil, err
	}
	if cfg.Temporal == KindXZT {
		e.xztIdx, err = xzt.New(cfg.XZTPeriodMillis, cfg.XZTG)
		if err != nil {
			return nil, err
		}
	}
	e.tsIdx, err = tshape.New(tshape.Params{Alpha: cfg.Alpha, Beta: cfg.Beta, G: cfg.G}, space)
	if err != nil {
		return nil, err
	}
	if cfg.Spatial == KindXZ2 {
		e.xzIdx = xz2.New(cfg.G)
	}

	// The store opens after the indexes exist because the fence extractors
	// are part of how its tables are opened: WAL replay already flushes
	// runs, and those runs must be built with the same fences as any other.
	// Primary rows carry a decodable time range and sketch bbox, so their
	// run blocks get fences and fence-aware push-down filters can prune
	// whole blocks. The ST secondary gets key-derived fences (bin interval
	// × element rectangle): its query windows coarsen under the window
	// budget, and fences recover the pruning the collapsed spatial
	// dimension gave up. The other secondaries keep plain runs — their
	// windows are already exact at index granularity.
	fences := []kvstore.TableFence{{Table: tablePrimary, Extract: rowFence}, {Table: tableST, Extract: e.stIndexFence}}
	opened := time.Now()
	if cfg.DataDir != "" {
		e.store, err = kvstore.OpenDir(cfg.DataDir, cfg.KV, fences...)
		if err != nil {
			return nil, err
		}
	} else {
		e.store = kvstore.Open(cfg.KV, fences...)
	}

	// OpenTable is idempotent: on a recovered store the tables already
	// exist with their data.
	e.primary = e.store.OpenTable(tablePrimary)
	e.trTable = e.store.OpenTable(tableTR)
	e.spTable = e.store.OpenTable(tableSP)
	e.idtTable = e.store.OpenTable(tableIDT)
	e.stTable = e.store.OpenTable(tableST)
	e.dirTable = e.store.OpenTable(tableShapeDir)
	e.bufTable = e.store.OpenTable(tableBufShapes)
	e.meta = e.store.OpenTable(tableMeta)

	if cfg.UseIndexCache && cfg.Spatial == KindTShape {
		e.icache = cache.NewIndexCacheSharded(cfg.CacheCapacity, cfg.CacheShards, newKVDirectory(e.dirTable))
		e.buffer = cache.NewBufferShapeCache(cfg.BufferThreshold)
	}
	if cfg.PlanCacheSize > 0 {
		e.plans = newPlanCache(cfg.PlanCacheSize)
	}
	e.rangeWorkers = cfg.KV.Parallelism
	if e.rangeWorkers <= 0 {
		e.rangeWorkers = kvstore.DefaultOptions().Parallelism
	}
	e.met = newEngineMetrics(e)
	if cfg.DataDir != "" {
		e.recoverState(opened)
	}
	e.writeMeta()
	return e, nil
}

// recoverState rebuilds in-memory bookkeeping from recovered tables: the
// buffered (not yet re-encoded) shapes that keep raw-coded rows reachable
// by queries, any re-encode pass a crash cut short, the row count and the
// observed TR value extent. The whole restart since opened is recorded as a
// "recover" job (bytes read: run files loaded; bytes written: log bytes
// re-applied to memtables; items: trajectories found) and its three phase
// times are logged once.
func (e *Engine) recoverState(opened time.Time) {
	job := e.store.Jobs().BeginAt("recover", "", 0, opened)
	start := time.Now()
	var interrupted []uint64
	if e.buffer != nil {
		for _, kv := range e.bufTable.Scan(nil, nil, nil, 0) {
			switch len(kv.Key) {
			case 8: // a re-encode pass was under way (see reencodeElement)
				elem, _ := codec.Uint64(kv.Key)
				interrupted = append(interrupted, elem)
			case 16:
				elem, _ := codec.Uint64(kv.Key)
				bits, _ := codec.Uint64(kv.Key[8:])
				// Re-adding may cross the threshold; re-encode immediately so
				// the recovered state converges.
				if e.buffer.Add(elem, bits) {
					e.reencodeElement(elem)
				}
			}
		}
		// A pass is idempotent — every row of the element is re-keyed from
		// its own geometry — so finishing an interrupted one is running it
		// again.
		for _, elem := range interrupted {
			e.reencodeElement(elem)
		}
	}
	// Count rows and observe TR values inside the region scanners: the
	// filter sees every live row and passes none, so nothing is copied out.
	e.primary.Scan(nil, nil, kvstore.FilterFunc(func(_, value []byte) bool {
		e.rows.Add(1)
		if hdr, _, err := decodeRowHeader(value); err == nil {
			e.observeTR(hdr.TRValue)
		}
		return false
	}), 0)

	rec := e.store.Recovery()
	state := time.Since(start)
	e.recoverDur = time.Since(opened)
	job.AddBytesRead(rec.RunFileBytes)
	job.AddBytesWritten(rec.WALBytes)
	job.AddItems(e.rows.Load())
	e.store.Jobs().End(job)
	slog.Info("recovered",
		"dir", e.cfg.DataDir,
		"load_ms", rec.LoadDuration.Milliseconds(), "run_files", rec.RunFiles, "run_file_bytes", rec.RunFileBytes,
		"replay_ms", rec.ReplayDuration.Milliseconds(), "wal_segments", rec.WALSegments, "wal_bytes", rec.WALBytes, "wal_rows", rec.WALRows,
		"state_ms", state.Milliseconds(), "trajectories", e.rows.Load(), "reencodes_finished", len(interrupted))
}

// Close flushes durable state (no-op for in-memory engines).
func (e *Engine) Close() error { return e.store.Close() }

// Checkpoint flushes every memtable of a durable store into run files,
// fsyncs them with the manifest and the log, and drops the log segments that
// are covered, so that a restart replays (almost) nothing. It may run beside
// writers.
func (e *Engine) Checkpoint() error { return e.store.Checkpoint() }

// RecoverDuration is how long New spent bringing a durable engine back
// (zero for an in-memory one).
func (e *Engine) RecoverDuration() time.Duration { return e.recoverDur }

// writeMeta records index parameters in the metadata table (paper
// Section IV-B(4)). A restart that finds them as they are writes nothing:
// it neither grows the log nor leaves a memtable pinning it.
func (e *Engine) writeMeta() {
	put := func(k, v string) {
		if cur, ok := e.meta.Get([]byte(k)); !ok || string(cur) != v {
			e.meta.Put([]byte(k), []byte(v))
		}
	}
	put("spatial", e.cfg.Spatial.String())
	put("temporal", e.cfg.Temporal.String())
	put("alpha", fmt.Sprint(e.cfg.Alpha))
	put("beta", fmt.Sprint(e.cfg.Beta))
	put("g", fmt.Sprint(e.cfg.G))
	put("period_ms", fmt.Sprint(e.cfg.PeriodMillis))
	put("n", fmt.Sprint(e.cfg.N))
	put("encoding", e.cfg.Encoding.String())
	put("shards", fmt.Sprint(e.cfg.Shards))
}

// Meta returns a recorded metadata entry.
func (e *Engine) Meta(key string) (string, bool) {
	v, ok := e.meta.Get([]byte(key))
	return string(v), ok
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Space returns the normalization space.
func (e *Engine) Space() *geo.Space { return e.space }

// Store exposes the underlying KV store (stats, table inspection).
func (e *Engine) Store() *kvstore.Store { return e.store }

// Rows returns the number of stored trajectories.
func (e *Engine) Rows() int64 { return e.rows.Load() }

// Reencodes returns how many element re-encode passes have run.
func (e *Engine) Reencodes() int64 { return e.reencodes.Load() }

// CacheStats returns index-cache counters (zero when the cache is off).
func (e *Engine) CacheStats() cache.CacheStats {
	if e.icache == nil {
		return cache.CacheStats{}
	}
	return e.icache.Stats()
}

// PlanCacheStats returns plan-cache counters (zero when disabled).
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.plans == nil {
		return PlanCacheStats{}
	}
	return e.plans.stats()
}

// ResetQueryPathStats zeroes the index-cache and plan-cache counters so
// back-to-back benchmark phases read clean deltas. Cached entries survive.
func (e *Engine) ResetQueryPathStats() {
	if e.icache != nil {
		e.icache.ResetStats()
	}
	if e.plans != nil {
		e.plans.resetStats()
	}
}

// bumpPlanEpoch invalidates memoized spatial plans. It must run after every
// shape-state mutation queries can observe: a raw shape entering the buffer
// (provider output changes) or a re-encode replacing final codes (the
// stale-plan-after-reencode correctness hazard).
func (e *Engine) bumpPlanEpoch() {
	if e.plans != nil {
		e.plans.bump()
	}
}

// temporalValue encodes a time range with the configured temporal index.
func (e *Engine) temporalValue(trng model.TimeRange) uint64 {
	if e.cfg.Temporal == KindXZT {
		return e.xztIdx.Encode(trng)
	}
	return e.trIdx.Encode(trng)
}

// temporalRanges produces candidate value intervals for a query range,
// memoized per exact range: TR/XZT range generation is a pure function of
// static index parameters, so entries never expire. The returned slice is
// shared read-only plan state.
func (e *Engine) temporalRanges(q model.TimeRange) []valueRange {
	if e.plans != nil {
		if rs, ok := e.plans.temporalGet(q); ok {
			return rs
		}
	}
	out := e.temporalRangesUncached(q)
	if e.plans != nil {
		e.plans.temporalPut(q, out)
	}
	return out
}

// temporalRangesUncached runs the configured temporal index directly.
func (e *Engine) temporalRangesUncached(q model.TimeRange) []valueRange {
	if e.cfg.Temporal == KindXZT {
		rs := e.xztIdx.QueryRanges(q)
		out := make([]valueRange, len(rs))
		for i, r := range rs {
			out[i] = valueRange{lo: r.Lo, hi: r.Hi}
		}
		return out
	}
	rs := e.trIdx.QueryRanges(q)
	out := make([]valueRange, len(rs))
	for i, r := range rs {
		out[i] = valueRange{lo: r.Lo, hi: r.Hi}
	}
	return out
}

// valueRange is a closed index-value interval, index-family agnostic.
type valueRange struct{ lo, hi uint64 }

// spatialValue computes the primary index value of a trajectory, resolving
// the shape code through the index cache / buffer cache when enabled.
func (e *Engine) spatialValue(t *model.Trajectory) uint64 {
	if e.cfg.Spatial == KindXZ2 {
		return e.xzIdx.Encode(e.space.NormalizeRect(t.MBR()))
	}
	elem, bits := e.tsIdx.EncodeRaw(t)
	return e.tsIdx.Pack(elem, e.resolveShapeCode(elem, bits))
}

// resolveShapeCode maps raw shape bits to the stored code per the update
// protocol of Section IV-C: optimized final code when the directory knows
// the shape, otherwise the raw bitmap (buffered for the next re-encode).
func (e *Engine) resolveShapeCode(elem, bits uint64) uint64 {
	if e.icache == nil {
		return bits
	}
	for _, s := range e.icache.Shapes(elem) {
		if s.Bits == bits {
			return s.Code
		}
	}
	if e.buffer.Contains(elem, bits) {
		return bits
	}
	e.bufTable.Put(bufShapeKey(elem, bits), nil)
	// A newly buffered raw shape changes what the shape provider reports
	// for this element; memoized spatial plans are stale from here on.
	defer e.bumpPlanEpoch()
	if e.buffer.Add(elem, bits) {
		e.reencodeElement(elem)
		// After re-encoding the directory knows this shape.
		for _, s := range e.icache.Shapes(elem) {
			if s.Bits == bits {
				return s.Code
			}
		}
	}
	return bits
}

// bufShapeKey addresses one buffered (not yet re-encoded) shape.
func bufShapeKey(elem, bits uint64) []byte {
	k := codec.AppendUint64(nil, elem)
	return codec.AppendUint64(k, bits)
}

// Put stores one trajectory, updating primary and secondary tables.
func (e *Engine) Put(t *model.Trajectory) error {
	if err := t.Validate(); err != nil {
		return err
	}
	return e.putEncoded(t, e.temporalValue(t.TimeRange()), e.spatialValue(t))
}

// putEncoded writes a trajectory whose index values are already resolved.
func (e *Engine) putEncoded(t *model.Trajectory, trValue, spatial uint64) error {
	feat := e.normalizedFeatures(t)
	shard := codec.ShardOf(t.TID, e.cfg.Shards)
	primaryVal := spatial
	if e.cfg.primaryIsTemporal() {
		primaryVal = trValue
	}
	pk := codec.PrimaryKey(shard, primaryVal, t.TID)
	e.primary.Put(pk, encodeRow(t, trValue, feat))

	// Secondary tables map back to the primary row key; the family serving
	// as the primary index needs no secondary of its own.
	if e.cfg.primaryIsTemporal() {
		e.spTable.Put(codec.SecondaryKey(shard, codec.AppendUint64(nil, spatial), t.TID), pk)
	} else {
		e.trTable.Put(codec.SecondaryKey(shard, codec.AppendUint64(nil, trValue), t.TID), pk)
	}
	e.idtTable.Put(codec.SecondaryKey(shard, idt.Key(t.OID, trValue), t.TID), pk)
	e.stTable.Put(codec.SecondaryKey(shard, st.Key(trValue, spatial), t.TID), pk)

	e.rows.Add(1)
	e.observeTR(trValue)
	return nil
}

// BatchPut stores many trajectories through the batched write path:
//
//  1. every trajectory is validated up front (an invalid row rejects the
//     whole batch before anything is written);
//  2. index values are resolved — for TShape with the index cache enabled
//     this keeps the update protocol of Section IV-C, grouping rows by
//     quadrant code so each group resolves its shape codes with one
//     directory access and at most one re-encode;
//  3. row values are encoded in parallel (point compression and DP-Feature
//     extraction are the CPU hot spot of ingest);
//  4. rows land as one MultiPut per KV table — primary plus each secondary
//     index — so the store charges one cost-model RPC per region batch and
//     group-commits each table batch to the WAL.
func (e *Engine) BatchPut(ts []*model.Trajectory) error {
	if len(ts) == 0 {
		return nil
	}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("engine: batch put %s: %w", t.TID, err)
		}
	}
	trVals := make([]uint64, len(ts))
	for i, t := range ts {
		trVals[i] = e.temporalValue(t.TimeRange())
	}
	spVals, err := e.resolveBatchSpatial(ts)
	if err != nil {
		return err
	}

	encoded := e.encodeBatchRows(ts, trVals)

	temporalPrimary := e.cfg.primaryIsTemporal()
	primaryRows := make([]kvstore.KV, len(ts))
	secRows := make([]kvstore.KV, len(ts)) // spatial or TR secondary, whichever isn't primary
	idtRows := make([]kvstore.KV, len(ts))
	stRows := make([]kvstore.KV, len(ts))
	for i, t := range ts {
		shard := codec.ShardOf(t.TID, e.cfg.Shards)
		primaryVal := spVals[i]
		if temporalPrimary {
			primaryVal = trVals[i]
		}
		pk := codec.PrimaryKey(shard, primaryVal, t.TID)
		primaryRows[i] = kvstore.KV{Key: pk, Value: encoded[i]}
		if temporalPrimary {
			secRows[i] = kvstore.KV{Key: codec.SecondaryKey(shard, codec.AppendUint64(nil, spVals[i]), t.TID), Value: pk}
		} else {
			secRows[i] = kvstore.KV{Key: codec.SecondaryKey(shard, codec.AppendUint64(nil, trVals[i]), t.TID), Value: pk}
		}
		idtRows[i] = kvstore.KV{Key: codec.SecondaryKey(shard, idt.Key(t.OID, trVals[i]), t.TID), Value: pk}
		stRows[i] = kvstore.KV{Key: codec.SecondaryKey(shard, st.Key(trVals[i], spVals[i]), t.TID), Value: pk}
	}
	e.primary.MultiPut(primaryRows)
	if temporalPrimary {
		e.spTable.MultiPut(secRows)
	} else {
		e.trTable.MultiPut(secRows)
	}
	e.idtTable.MultiPut(idtRows)
	e.stTable.MultiPut(stRows)

	e.rows.Add(int64(len(ts)))
	for _, v := range trVals {
		e.observeTR(v)
	}
	return nil
}

// resolveBatchSpatial computes the spatial index value of every (already
// validated) trajectory. With TShape and the index cache on, rows group by
// enlarged element so buffer adds and the potential re-encode of a group
// happen once, before any of the batch's rows are written; re-encodes are
// per-element, so resolving all groups before writing is equivalent to the
// sequential group-by-group protocol.
func (e *Engine) resolveBatchSpatial(ts []*model.Trajectory) ([]uint64, error) {
	spVals := make([]uint64, len(ts))
	if e.icache == nil || e.cfg.Spatial != KindTShape {
		for i, t := range ts {
			spVals[i] = e.spatialValue(t)
		}
		return spVals, nil
	}
	type pending struct {
		idx  int
		bits uint64
	}
	groups := make(map[uint64][]pending)
	var order []uint64
	for i, t := range ts {
		elem, bits := e.tsIdx.EncodeRaw(t)
		if _, seen := groups[elem]; !seen {
			order = append(order, elem)
		}
		groups[elem] = append(groups[elem], pending{idx: i, bits: bits})
	}
	for _, elem := range order {
		items := groups[elem]
		// Resolve every distinct shape of the group first (buffer adds and
		// the potential re-encode happen before this group's codes settle).
		codes := make(map[uint64]uint64)
		for _, it := range items {
			if _, done := codes[it.bits]; !done {
				codes[it.bits] = e.resolveShapeCode(elem, it.bits)
			}
		}
		// A re-encode triggered by a later shape renumbers earlier ones;
		// re-read the final codes now that the group's directory is stable.
		known := make(map[uint64]uint64)
		for _, s := range e.icache.Shapes(elem) {
			known[s.Bits] = s.Code
		}
		for bits := range codes {
			if code, ok := known[bits]; ok {
				codes[bits] = code
			} else {
				codes[bits] = bits // still buffered: raw code
			}
		}
		for _, it := range items {
			spVals[it.idx] = e.tsIdx.Pack(elem, codes[it.bits])
		}
	}
	return spVals, nil
}

// encodeBatchRows serializes every row value, fanning the CPU-bound encode
// (DP-Feature extraction + point compression) across GOMAXPROCS goroutines
// in fixed chunks. Results are positional, so output order is exactly input
// order regardless of scheduling.
func (e *Engine) encodeBatchRows(ts []*model.Trajectory, trVals []uint64) [][]byte {
	encoded := make([][]byte, len(ts))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ts) {
		workers = len(ts)
	}
	if workers <= 1 {
		for i, t := range ts {
			encoded[i] = encodeRow(t, trVals[i], e.normalizedFeatures(t))
		}
		return encoded
	}
	const chunk = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(ts) {
					return
				}
				hi := lo + chunk
				if hi > len(ts) {
					hi = len(ts)
				}
				for i := lo; i < hi; i++ {
					encoded[i] = encodeRow(ts[i], trVals[i], e.normalizedFeatures(ts[i]))
				}
			}
		}()
	}
	wg.Wait()
	return encoded
}

// Delete removes a trajectory given its oid, tid and (exact) stored time
// range and geometry — callers usually pass a trajectory previously read
// from the engine.
func (e *Engine) Delete(t *model.Trajectory) error {
	if err := t.Validate(); err != nil {
		return err
	}
	trValue := e.temporalValue(t.TimeRange())
	spatial := e.spatialValue(t)
	shard := codec.ShardOf(t.TID, e.cfg.Shards)
	primaryVal := spatial
	if e.cfg.primaryIsTemporal() {
		primaryVal = trValue
	}
	pk := codec.PrimaryKey(shard, primaryVal, t.TID)
	if _, ok := e.primary.Get(pk); !ok {
		return nil // idempotent: nothing stored under this identity
	}
	e.primary.Delete(pk)
	if e.cfg.primaryIsTemporal() {
		e.spTable.Delete(codec.SecondaryKey(shard, codec.AppendUint64(nil, spatial), t.TID))
	} else {
		e.trTable.Delete(codec.SecondaryKey(shard, codec.AppendUint64(nil, trValue), t.TID))
	}
	e.idtTable.Delete(codec.SecondaryKey(shard, idt.Key(t.OID, trValue), t.TID))
	e.stTable.Delete(codec.SecondaryKey(shard, st.Key(trValue, spatial), t.TID))
	e.rows.Add(-1)
	return nil
}

// normalizedFeatures extracts the DP-Features sketch in normalized
// coordinates.
func (e *Engine) normalizedFeatures(t *model.Trajectory) model.DPFeatures {
	norm := &model.Trajectory{OID: t.OID, TID: t.TID, Points: make([]model.Point, len(t.Points))}
	for i, p := range t.Points {
		x, y := e.space.Normalize(p.X, p.Y)
		norm.Points[i] = model.Point{X: x, Y: y, T: p.T}
	}
	return model.ExtractDPFeatures(norm, e.cfg.DPEpsilon, e.cfg.DPMaxRep)
}

func (e *Engine) observeTR(v uint64) {
	iv := int64(v)
	if !e.trSeen.Swap(true) {
		e.minTR.Store(iv)
		e.maxTR.Store(iv)
		return
	}
	for {
		cur := e.minTR.Load()
		if iv >= cur || e.minTR.CompareAndSwap(cur, iv) {
			break
		}
	}
	for {
		cur := e.maxTR.Load()
		if iv <= cur || e.maxTR.CompareAndSwap(cur, iv) {
			break
		}
	}
}

// reencodeElement implements the re-encode pass of Section IV-C: gather all
// known shapes of the element (directory + buffer), compute an optimized
// order, persist the new directory, and rewrite rows whose index value
// changed.
func (e *Engine) reencodeElement(elem uint64) {
	e.reencodeMu.Lock()
	defer e.reencodeMu.Unlock()

	buffered := e.buffer.Take(elem)
	existing := e.icache.Shapes(elem)
	seen := make(map[uint64]struct{}, len(existing)+len(buffered))
	all := make([]uint64, 0, len(existing)+len(buffered))
	for _, s := range existing {
		if _, dup := seen[s.Bits]; !dup {
			seen[s.Bits] = struct{}{}
			all = append(all, s.Bits)
		}
	}
	for _, b := range buffered {
		if _, dup := seen[b]; !dup {
			seen[b] = struct{}{}
			all = append(all, b)
		}
	}
	if len(all) == 0 {
		return
	}
	ordered := tshape.OptimizeOrder(all, e.cfg.Encoding, int64(elem))
	shapes := make([]cache.Shape, len(ordered))
	newCode := make(map[uint64]uint64, len(ordered))
	for i, bits := range ordered {
		shapes[i] = cache.Shape{Bits: bits, Code: uint64(i)}
		newCode[bits] = uint64(i)
	}
	// The pass is several writes to several tables and a crash may fall
	// between any two. A marker row (the element alone as key) brackets it:
	// recoverState runs the pass again for every marker it finds, which is
	// safe because the pass is idempotent. Inside the bracket the order is
	// directory first, then the buffered-shape rows (until the directory
	// knows a shape, the buffer row is what keeps its raw-coded
	// trajectories reachable), then the row moves.
	marker := codec.AppendUint64(nil, elem)
	e.bufTable.Put(marker, nil)
	e.crash("reencode-marked")
	if err := e.icache.Update(elem, shapes); err != nil {
		return
	}
	e.crash("directory-updated")
	for _, bits := range buffered {
		e.bufTable.Delete(bufShapeKey(elem, bits))
	}
	// Final codes just changed: plans generated against the old directory
	// would scan dead index values and miss the rewritten rows.
	e.bumpPlanEpoch()
	e.reencodes.Add(1)
	e.rewriteElementRows(elem, newCode)
	e.bumpPlanEpoch()
	e.bufTable.Delete(marker)
}

func (e *Engine) crash(point string) {
	if e.crashHook != nil {
		e.crashHook(point)
	}
}

// rewriteElementRows migrates stored rows of an element to their new shape
// codes: primary keys move when the primary table is spatial; otherwise the
// spatial secondary and ST mappings are rewritten in place.
func (e *Engine) rewriteElementRows(elem uint64, newCode map[uint64]uint64) {
	if e.cfg.primaryIsTemporal() {
		e.rewriteElementSecondary(elem, newCode)
		return
	}
	anchor := e.tsIdx.AnchorFromExtCode(elem)
	for s := 0; s < e.cfg.Shards; s++ {
		lo := e.tsIdx.Pack(elem, 0)
		hi := e.tsIdx.Pack(elem, 1<<e.tsIdx.ShapeBitsWidth()-1)
		start, end := codec.RangeForIndexValues(byte(s), lo, hi)
		rows := e.primary.Scan(start, end, nil, 0)
		for _, kv := range rows {
			_, oldVal, tid, err := codec.SplitPrimaryKey(kv.Key)
			if err != nil {
				continue
			}
			row, err := decodeRow(kv.Value)
			if err != nil {
				continue
			}
			traj, err := row.Trajectory()
			if err != nil {
				continue
			}
			bits := e.tsIdx.ShapeBits(traj, anchor)
			code, ok := newCode[bits]
			if !ok {
				continue // shape unknown (should not happen); keep as is
			}
			newVal := e.tsIdx.Pack(elem, code)
			if newVal == oldVal {
				continue
			}
			// New key and mappings first, the old row last: until its delete
			// is logged, a crash leaves the old row in place and the pass run
			// again at recovery finds it and finishes the move. (Readers that
			// meet both copies drop one by TID.)
			newKey := codec.PrimaryKey(byte(s), newVal, tid)
			shard := byte(s)
			e.primary.Put(newKey, kv.Value)
			e.trTable.Put(codec.SecondaryKey(shard, codec.AppendUint64(nil, row.TRValue), tid), newKey)
			e.idtTable.Put(codec.SecondaryKey(shard, idt.Key(row.OID, row.TRValue), tid), newKey)
			e.stTable.Put(codec.SecondaryKey(shard, st.Key(row.TRValue, newVal), tid), newKey)
			e.crash("row-moving")
			e.stTable.Delete(codec.SecondaryKey(shard, st.Key(row.TRValue, oldVal), tid))
			e.primary.Delete(kv.Key)
		}
	}
}

// rewriteElementSecondary re-keys the spatial secondary and ST mappings of
// an element when the primary table is temporal (primary rows stay put).
func (e *Engine) rewriteElementSecondary(elem uint64, newCode map[uint64]uint64) {
	anchor := e.tsIdx.AnchorFromExtCode(elem)
	for s := 0; s < e.cfg.Shards; s++ {
		lo := e.tsIdx.Pack(elem, 0)
		hi := e.tsIdx.Pack(elem, 1<<e.tsIdx.ShapeBitsWidth()-1)
		start := append([]byte{byte(s)}, codec.AppendUint64(nil, lo)...)
		var end []byte
		if hi == ^uint64(0) {
			end = []byte{byte(s) + 1}
		} else {
			end = append([]byte{byte(s)}, codec.AppendUint64(nil, hi+1)...)
		}
		entries := e.spTable.Scan(start, end, nil, 0)
		for _, kv := range entries {
			// Secondary key layout: shard(1) :: value(8) :: 0x00 :: tid.
			if len(kv.Key) < 10 {
				continue
			}
			oldVal, _ := codec.Uint64(kv.Key[1:])
			tid := string(kv.Key[10:])
			pk := kv.Value
			value, ok := e.primary.Get(pk)
			if !ok {
				continue
			}
			row, err := decodeRow(value)
			if err != nil {
				continue
			}
			traj, err := row.Trajectory()
			if err != nil {
				continue
			}
			bits := e.tsIdx.ShapeBits(traj, anchor)
			code, okCode := newCode[bits]
			if !okCode {
				continue
			}
			newVal := e.tsIdx.Pack(elem, code)
			if newVal == oldVal {
				continue
			}
			// New mappings first, the scanned one last (see rewriteElementRows).
			shard := byte(s)
			e.spTable.Put(codec.SecondaryKey(shard, codec.AppendUint64(nil, newVal), tid), pk)
			e.stTable.Put(codec.SecondaryKey(shard, st.Key(row.TRValue, newVal), tid), pk)
			e.crash("row-moving")
			e.stTable.Delete(codec.SecondaryKey(shard, st.Key(row.TRValue, oldVal), tid))
			e.spTable.Delete(kv.Key)
		}
	}
}

// shapeProvider merges the persistent directory with shapes still waiting
// in the buffer cache, so queries see trajectories stored under raw codes.
type shapeProvider struct {
	e *Engine
}

// Shapes implements tshape.ShapeProvider.
func (p shapeProvider) Shapes(elem uint64) []tshape.Shape {
	var out []tshape.Shape
	known := map[uint64]struct{}{}
	for _, s := range p.e.icache.Shapes(elem) {
		out = append(out, tshape.Shape{Bits: s.Bits, Code: s.Code})
		known[s.Bits] = struct{}{}
	}
	for _, bits := range p.e.buffer.Shapes(elem) {
		if _, dup := known[bits]; !dup {
			out = append(out, tshape.Shape{Bits: bits, Code: bits})
		}
	}
	return out
}

// provider returns the ShapeProvider queries should use (nil when the index
// cache is disabled — the full-shape-range fallback).
func (e *Engine) provider() tshape.ShapeProvider {
	if e.icache == nil {
		return nil
	}
	return shapeProvider{e: e}
}
