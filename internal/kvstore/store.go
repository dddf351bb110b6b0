package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tman-db/tman/internal/cache"
	"github.com/tman-db/tman/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Nodes is the number of simulated storage nodes regions are spread
	// over. It only affects region placement bookkeeping: every region lives
	// in this process (and, for a store opened with OpenDir, in its one
	// directory).
	Nodes int
	// RegionMaxBytes triggers a region split when a region's approximate
	// size passes this threshold.
	RegionMaxBytes int
	// MemtableFlushBytes triggers a memtable flush into a sorted run.
	MemtableFlushBytes int
	// MaxRunsPerRegion bounds a region's logical run count: the tiered
	// policy falls back to cheapest-pair merges above it.
	MaxRunsPerRegion int
	// CompactFanIn is how many consecutive same-size-tier runs one tiered
	// compaction merges (0 = 4, min 2). Larger fan-in lowers write
	// amplification but leaves more runs visible between merges.
	CompactFanIn int
	// CompactSubRanges is the maximum number of key-range partitions a
	// single large merge is split into for parallel sub-compactions on the
	// flusher pool (0 = 4; 1 disables partitioning). Merges under 4 MiB of
	// input never partition.
	CompactSubRanges int
	// Parallelism sizes the store's shared worker pool: the number of
	// region scan/write tasks that may run concurrently store-wide, and
	// therefore the parallelism ceiling of any single query or MultiPut.
	Parallelism int
	// FlushWorkers sizes the background flusher: how many regions can have
	// memtables flushed (and compactions run) concurrently. Flush work
	// happens off the put path, so writers never block on it.
	FlushWorkers int
	// RPCLatencyMicros models the round-trip cost of one region scan RPC
	// (the paper's five-node HBase deployment); each per-region scan task
	// sleeps this long. Zero disables the network model.
	RPCLatencyMicros int
	// TransferMBps models client<-regionserver bandwidth: rows that pass
	// the push-down filter are "transferred" and charged at this rate.
	// Zero disables the charge. Push-down savings become visible in wall
	// clock through this term.
	TransferMBps int
	// DiskMBps models regionserver storage bandwidth: every row a scanner
	// visits is charged at this rate whether or not it passes the filter —
	// the physical cost behind the paper's "candidates" metric. Zero
	// disables the charge.
	DiskMBps int
	// Replicas is the number of copies of each region, leader included.
	// <= 1 disables replication. Followers are placed on distinct nodes
	// (clamped to the node count) and kept in sync by synchronous WAL-frame
	// shipping; see replication.go.
	Replicas int
	// ReplicaTailFrames bounds the per-region log tail retained for
	// follower catch-up: a follower that fell further behind than this many
	// commits is rebuilt from a leader snapshot instead of a tail replay.
	ReplicaTailFrames int
	// Fault configures deterministic fault injection on the client RPC
	// paths (ScanCtx/ScanRangesCtx/GetCtx/PutCtx). The zero value disables
	// injection.
	Fault FaultConfig
	// Retry is the client-side retry schedule used by the context-aware
	// operations when a fault is injected. Zero-valued fields take
	// DefaultRetryPolicy values.
	Retry RetryPolicy

	// BlockSizeBytes is the target encoded size of one run block (0 =
	// 4KiB). Entries never split across blocks, so a block may exceed the
	// target by one oversized row.
	BlockSizeBytes int
	// BloomBitsPerKey sizes each run's bloom filter (0 = 10 bits/key,
	// roughly a 1% false-positive rate; negative disables the filters).
	BloomBitsPerKey int
	// BlockCacheBytes bounds the store-wide cache of decompressed blocks
	// by their decoded size (0 = 32MiB; negative disables the cache, so
	// every block read decodes — and is charged — from the encoded run).
	BlockCacheBytes int
	// DisableBlockFences drops per-block fences (zone maps): runs carry no
	// fence metadata and every scan inspects every overlapping block. Not
	// reachable from tman options or tmand flags; it stays because
	// TestFenceChargedByteReduction and TestFenceScanEquivalence use the
	// fence-less store as the reference for the charged-bytes claim.
	DisableBlockFences bool
}

// DefaultOptions mirrors the paper's five-node deployment at laptop scale.
func DefaultOptions() Options {
	return Options{
		Nodes:              5,
		RegionMaxBytes:     8 << 20,
		MemtableFlushBytes: 1 << 20,
		MaxRunsPerRegion:   6,
		CompactFanIn:       4,
		CompactSubRanges:   4,
		Parallelism:        8,
		FlushWorkers:       4,
		RPCLatencyMicros:   150,
		TransferMBps:       32,
		DiskMBps:           256,
		BlockSizeBytes:     4 << 10,
		BloomBitsPerKey:    10,
		BlockCacheBytes:    32 << 20,
	}
}

// NoNetworkOptions returns DefaultOptions with the simulated network model
// disabled — pure CPU measurement, useful for unit tests and
// microbenchmarks.
func NoNetworkOptions() Options {
	o := DefaultOptions()
	o.RPCLatencyMicros = 0
	o.TransferMBps = 0
	o.DiskMBps = 0
	return o
}

func (o *Options) sanitize() {
	def := DefaultOptions()
	if o.Nodes <= 0 {
		o.Nodes = def.Nodes
	}
	if o.RegionMaxBytes <= 0 {
		o.RegionMaxBytes = def.RegionMaxBytes
	}
	if o.MemtableFlushBytes <= 0 {
		o.MemtableFlushBytes = def.MemtableFlushBytes
	}
	if o.MemtableFlushBytes > o.RegionMaxBytes {
		o.MemtableFlushBytes = o.RegionMaxBytes
	}
	if o.MaxRunsPerRegion <= 0 {
		o.MaxRunsPerRegion = def.MaxRunsPerRegion
	}
	if o.CompactFanIn <= 0 {
		o.CompactFanIn = def.CompactFanIn
	}
	if o.CompactFanIn < 2 {
		o.CompactFanIn = 2
	}
	if o.CompactSubRanges <= 0 {
		o.CompactSubRanges = def.CompactSubRanges
	}
	if o.Parallelism <= 0 {
		o.Parallelism = def.Parallelism
	}
	if o.FlushWorkers <= 0 {
		o.FlushWorkers = def.FlushWorkers
	}
	if o.Replicas > o.Nodes {
		o.Replicas = o.Nodes
	}
	if o.ReplicaTailFrames <= 0 {
		o.ReplicaTailFrames = 1024
	}
	if o.BlockSizeBytes <= 0 {
		o.BlockSizeBytes = def.BlockSizeBytes
	}
	if o.BlockSizeBytes < 512 {
		o.BlockSizeBytes = 512
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = def.BloomBitsPerKey
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = def.BlockCacheBytes
	}
	o.Retry.sanitize()
}

// Store is an embedded, sharded, ordered key-value store: the substrate all
// of TMan's tables live in.
type Store struct {
	opts      Options
	mu        sync.RWMutex
	tables    map[string]*Table
	nodeSeq   atomic.Int64
	regionSeq atomic.Int64
	stats     Stats
	injector  *faultInjector // nil when fault injection is disabled
	pool      *workPool      // shared bounded executor for region scan/write tasks
	fl        *flusher       // background memtable flusher/compactor
	bcfg      *blockConfig   // store-wide run format config
	jobs      *obs.JobRecorder

	// fences holds the per-table fence extractors the store was opened
	// with; a fenced table builds its runs with its own copy of bcfg.
	fences map[string]FenceExtractor

	// Node liveness (KillNode/ReviveNode). anyDead keeps the per-RPC check
	// to one atomic load until the first kill.
	nodeMu    sync.RWMutex
	deadNodes map[int]bool
	anyDead   atomic.Bool

	// Durability (set by OpenDir; nil for in-memory stores).
	per      *persister
	recovery RecoveryStats
}

// TableFence names the fence extractor the runs of one table are built
// with: every run block of that table carries a fence (time range +
// bounding box) summarizing its rows, and scans whose filter implements
// FenceFilter prune blocks against those fences before fetching or decoding
// them. The extractor is fixed when the store is opened — before any table
// exists or any WAL record is replayed — and applies to every region the
// table ever has, split children and replication followers included.
type TableFence struct {
	Table   string
	Extract FenceExtractor
}

// Open creates an empty store with the given options. Tables named in
// fences get fenced runs (ignored under DisableBlockFences).
func Open(opts Options, fences ...TableFence) *Store {
	opts.sanitize()
	s := &Store{
		opts:     opts,
		tables:   make(map[string]*Table),
		injector: newFaultInjector(opts.Fault),
		pool:     newWorkPool(opts.Parallelism),
		jobs:     obs.NewJobRecorder(256),
	}
	s.fl = newFlusher(&s.stats, opts.FlushWorkers)
	s.bcfg = &blockConfig{
		blockBytes: opts.BlockSizeBytes,
		bloomBits:  opts.BloomBitsPerKey,
		stats:      &s.stats,
	}
	if opts.BlockCacheBytes > 0 {
		s.bcfg.cache = cache.NewBlockCache(int64(opts.BlockCacheBytes), 0)
	}
	if !opts.DisableBlockFences {
		s.fences = make(map[string]FenceExtractor, len(fences))
		for _, f := range fences {
			s.fences[f.Table] = f.Extract
		}
	}
	return s
}

// CreateTable creates a table, erroring if the name is taken.
func (s *Store) CreateTable(name string) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("kvstore: table %q already exists", name)
	}
	t := newTable(name, s)
	s.tables[name] = t
	return t, nil
}

// Table returns the named table, or nil when absent.
func (s *Store) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[name]
}

// OpenTable returns the named table, creating it if needed.
func (s *Store) OpenTable(name string) *Table {
	if t := s.Table(name); t != nil {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[name]; ok {
		return t
	}
	t := newTable(name, s)
	s.tables[name] = t
	return t
}

// DropTable removes a table and all its data.
func (s *Store) DropTable(name string) {
	seg := s.logMutation(opDropTable, name, nil, nil)
	s.dropTable(name)
	s.settle(seg)
}

// dropTable is DropTable after the log: the live path and log replay share
// it.
func (s *Store) dropTable(name string) {
	s.mu.Lock()
	t := s.tables[name]
	delete(s.tables, name)
	s.mu.Unlock()
	if t == nil {
		return
	}
	// Hold out every flush of the table while its regions leave the
	// manifest, then cut the regions loose from the disk: a straggling
	// writer or flush of a dropped region stays in memory and pins no log.
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.regions {
		r.flushMu.Lock()
	}
	t.installRegions("table", t.regions, nil, func() {})
	for _, r := range t.regions {
		r.detach()
		r.flushMu.Unlock()
	}
	if s.per != nil {
		s.per.dropCovered()
	}
}

// TableNames returns the names of all tables.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	return names
}

// Stats exposes the store's scan/write counters.
func (s *Store) Stats() *Stats { return &s.stats }

// BlockCacheStats reports the block cache tier's hit/miss/eviction
// counters; the zero value when the cache is off.
func (s *Store) BlockCacheStats() cache.CacheStats {
	if s.bcfg.cache == nil {
		return cache.CacheStats{}
	}
	return s.bcfg.cache.Stats()
}

// BlockCacheUsedBytes reports the decoded bytes resident in the block
// cache.
func (s *Store) BlockCacheUsedBytes() int64 {
	if s.bcfg.cache == nil {
		return 0
	}
	return s.bcfg.cache.UsedBytes()
}

// ResidentRunBytes sums the actual memory footprint of every run in the
// store: encoded blocks + sparse index + bloom filter.
func (s *Store) ResidentRunBytes() int64 {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	var n int64
	for _, t := range tables {
		t.mu.RLock()
		for _, r := range t.regions {
			r.mu.RLock()
			for _, run := range r.runs {
				n += int64(run.residentBytes())
			}
			r.mu.RUnlock()
		}
		t.mu.RUnlock()
	}
	return n
}

// TotalRegions returns the store-wide region count across all tables — the
// cluster-size gauge exported through the metrics registry.
func (s *Store) TotalRegions() int {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	n := 0
	for _, t := range tables {
		n += t.RegionCount()
	}
	return n
}

// Nodes returns the configured simulated node count.
func (s *Store) Nodes() int { return s.opts.Nodes }

// nextNode assigns the next region to a node round-robin, skipping nodes
// that are currently dead (a split during an outage must not home the new
// region on a node that cannot serve). With every node dead it falls back to
// the raw rotation — nothing can serve anyway.
func (s *Store) nextNode() int {
	n := int(s.nodeSeq.Add(1)-1) % s.opts.Nodes
	if s.nodeAlive(n) {
		return n
	}
	for i := 1; i < s.opts.Nodes; i++ {
		if cand := (n + i) % s.opts.Nodes; s.nodeAlive(cand) {
			return cand
		}
	}
	return n
}

// nextRegionID issues store-unique region ids; with a deterministic load
// order they are stable across runs, which keeps injected faults replayable.
func (s *Store) nextRegionID() int64 { return s.regionSeq.Add(1) }

// compactPol is the store-wide compaction policy every region is built with.
func (s *Store) compactPol() compactPolicy {
	return compactPolicy{fanIn: s.opts.CompactFanIn, subRanges: s.opts.CompactSubRanges}
}

// RetryPolicy returns the sanitized client retry schedule.
func (s *Store) RetryPolicy() RetryPolicy { return s.opts.Retry }

// FaultsEnabled reports whether the store injects faults.
func (s *Store) FaultsEnabled() bool { return s.injector != nil }

// CompactQueueDepth reports the background backlog: regions queued for
// flush plus unclaimed sub-compaction tasks.
func (s *Store) CompactQueueDepth() int64 { return s.fl.depth() }

// ScanQueueDepth reports the shared scan/write executor's queued-but-
// unstarted task backlog.
func (s *Store) ScanQueueDepth() int64 { return s.pool.depth() }

// Jobs exposes the store's background-job recorder: every flush, compaction,
// catch-up, split and failover is recorded with a wall-clock resource ledger
// (side-band — never part of the deterministic Stats counters).
func (s *Store) Jobs() *obs.JobRecorder { return s.jobs }

// RegionHot is one region's lifetime scan-traffic summary for the hotness
// gauges and /debug/jobs.
type RegionHot struct {
	Table  string `json:"table"`
	Region int64  `json:"region"`
	Node   int    `json:"node"`
	Scans  int64  `json:"scans"`
	Rows   int64  `json:"rows_visited"`
}

// RegionHotness returns the top-k regions by rows visited, hottest first
// (k <= 0 → all). Two atomic loads per region; safe to poll from scrapes.
func (s *Store) RegionHotness(k int) []RegionHot {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	var out []RegionHot
	for _, t := range tables {
		t.mu.RLock()
		for _, r := range t.regions {
			out = append(out, RegionHot{
				Table:  t.name,
				Region: r.id,
				Node:   r.nodeID(),
				Scans:  r.hotScans.Load(),
				Rows:   r.hotRows.Load(),
			})
		}
		t.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Rows != out[b].Rows {
			return out[a].Rows > out[b].Rows
		}
		return out[a].Region < out[b].Region
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// TierRunHistogram counts the store's logical runs by size tier (index =
// runTier of the logical run's bytes; fragments of one partitioned merge
// count as a single logical run, matching the policy's view). The slice is
// dense from tier 0 to the largest occupied tier.
func (s *Store) TierRunHistogram() []int {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	var hist []int
	for _, t := range tables {
		t.mu.RLock()
		for _, r := range t.regions {
			r.mu.RLock()
			for _, lr := range logicalRuns(r.runs) {
				tier := runTier(lr.bytes)
				for len(hist) <= tier {
					hist = append(hist, 0)
				}
				hist[tier]++
			}
			r.mu.RUnlock()
		}
		t.mu.RUnlock()
	}
	return hist
}

// MaxRunsPerRegion reports the deepest run stack any region holds, in the
// tier policy's logical runs — the worst read amplification a scan can meet.
func (s *Store) MaxRunsPerRegion() int {
	deepest := 0
	for _, t := range s.tablesSnapshot() {
		for _, r := range t.regionSnapshot() {
			r.mu.RLock()
			if n := len(logicalRuns(r.runs)); n > deepest {
				deepest = n
			}
			r.mu.RUnlock()
		}
	}
	return deepest
}

// CompactAll flushes and compacts every region of every table — the
// analogue of a major compaction after bulk loading. Benchmarks call this
// so scans measure the steady state. Regions settle in parallel on the
// flusher's helper pool (the caller participates, so it completes even with
// every worker busy).
func (s *Store) CompactAll() {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	for _, t := range tables {
		t.CompactAll()
	}
}
