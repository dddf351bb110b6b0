package kvstore

import (
	"fmt"
	"testing"

	"github.com/tman-db/tman/internal/cache"
)

// Benchmarks for the overhauled read path: k-way run merging, hot-region
// streaming scans, and the multi-window scan executor. Run via `make bench`
// to regenerate BENCH_readpath.json.

// buildMergeSources produces k key-sorted sources whose keys interleave,
// with a sprinkling of cross-source duplicates and tombstones — the shape a
// compaction or multi-run scan merge actually sees.
func buildMergeSources(k, total int) [][]entry {
	per := total / k
	sources := make([][]entry, k)
	for i := range sources {
		es := make([]entry, per)
		for j := range es {
			seq := j*k + i
			if j%37 == 0 && i > 0 {
				seq = j * k // duplicate a key owned by source 0
			}
			es[j] = entry{
				key:   []byte(fmt.Sprintf("key-%09d", seq)),
				value: []byte("value-payload-payload"),
				tomb:  j%53 == 0,
			}
		}
		sources[i] = es
	}
	return sources
}

// benchmarkBlockMerge times the compaction merge: k block runs streamed
// through cursors into a new run, tombstones dropped, cache bypassed.
func benchmarkBlockMerge(b *testing.B, k int) {
	cfg := &blockConfig{blockBytes: 4 << 10, bloomBits: 10}
	var runs []*blockRun
	for _, src := range buildMergeSources(k, 65536) {
		runs = append(runs, newRunFromEntries(cfg, src))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if out := mergeRunWindow(cfg, runs, nil, nil, true); out.count == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkBlockMerge4Sources(b *testing.B)  { benchmarkBlockMerge(b, 4) }
func BenchmarkBlockMerge16Sources(b *testing.B) { benchmarkBlockMerge(b, 16) }
func BenchmarkBlockMerge64Sources(b *testing.B) { benchmarkBlockMerge(b, 64) }

// BenchmarkRegionScan scans a hot region holding many uncompacted runs plus
// a live memtable — the worst case for the merge layer.
func BenchmarkRegionScan(b *testing.B) {
	bcfg := &blockConfig{blockBytes: 4 << 10, bloomBits: 10, cache: cache.NewBlockCache(32<<20, 0)}
	r := newRegion(1, nil, nil, 0, 1<<30, 1<<30, compactPolicy{fanIn: 4, subRanges: 1}, nil, bcfg) // thresholds disable auto flush/compact
	var sink Stats
	const runs, perRun = 16, 2000
	for runIdx := 0; runIdx < runs; runIdx++ {
		for j := 0; j < perRun; j++ {
			seq := j*runs + runIdx
			r.put([]byte(fmt.Sprintf("key-%08d", seq)), []byte("value-payload-payload"), nil)
		}
		r.mu.Lock()
		r.sealLocked()
		r.drainImmsLocked(&sink)
		r.mu.Unlock()
	}
	// Leave some rows in the memtable so the scan merges runs + memtable.
	for j := 0; j < perRun; j++ {
		r.put([]byte(fmt.Sprintf("key-%08d", j*runs+3)), []byte("fresh-payload"), nil)
	}
	var out []KV
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		out = out[:0]
		var hit bool
		out, hit, _ = r.scan(nil, nil, nil, 0, out, nil, nil)
		if hit || len(out) != runs*perRun {
			b.Fatalf("scan returned %d rows (hit=%v)", len(out), hit)
		}
	}
}

// BenchmarkScanRangesManyRegions measures the multi-window executor over a
// table split into many regions, each still holding several runs (no final
// compaction): per-query goroutine churn and merge allocations dominate the
// baseline here.
func BenchmarkScanRangesManyRegions(b *testing.B) {
	opts := NoNetworkOptions()
	opts.RegionMaxBytes = 32 << 10
	opts.MemtableFlushBytes = 4 << 10
	opts.MaxRunsPerRegion = 8
	s := Open(opts)
	tbl, _ := s.CreateTable("t")
	const rows = 30000
	for i := 0; i < rows; i++ {
		tbl.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("value-payload-payload-payload"))
	}
	ranges := make([]KeyRange, 64)
	for i := range ranges {
		lo := i * 400
		ranges[i] = KeyRange{
			Start: []byte(fmt.Sprintf("key-%08d", lo)),
			End:   []byte(fmt.Sprintf("key-%08d", lo+50)),
		}
	}
	if rc := tbl.RegionCount(); rc < 8 {
		b.Fatalf("want many regions, got %d", rc)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		out := tbl.ScanRanges(ranges, nil, 0)
		if len(out) != 64*50 {
			b.Fatalf("scan returned %d", len(out))
		}
	}
}

// --- block-format benchmarks ---------------------------------------------

// blockBenchStore builds a block-format store with flushed multi-run
// regions: ~30k rows under small thresholds, trajectory-shaped keys.
func blockBenchStore(b *testing.B, cacheBytes int) (*Store, *Table) {
	b.Helper()
	opts := NoNetworkOptions()
	opts.RegionMaxBytes = 256 << 10
	opts.MemtableFlushBytes = 16 << 10
	opts.BlockCacheBytes = cacheBytes
	s := Open(opts)
	tbl, _ := s.CreateTable("t")
	for i := 0; i < 30000; i++ {
		tbl.Put([]byte(fmt.Sprintf("traj/%03d/%08d", i%40, i)), []byte("value-payload-payload-payload"))
	}
	s.Quiesce()
	return s, tbl
}

// BenchmarkBlockScanWarm scans the whole table with the shared block cache
// enabled: after the first pass every block is resident, so steady-state
// iterations charge no physical reads. Reports the cache hit rate.
func BenchmarkBlockScanWarm(b *testing.B) {
	s, tbl := blockBenchStore(b, 64<<20)
	tbl.Scan(nil, nil, nil, 0) // warm the cache
	before := s.BlockCacheStats()
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if out := tbl.Scan(nil, nil, nil, 0); len(out) != 30000 {
			b.Fatalf("scan returned %d rows", len(out))
		}
	}
	d := s.BlockCacheStats()
	hits, misses := float64(d.Hits-before.Hits), float64(d.Misses-before.Misses)
	if hits+misses > 0 {
		b.ReportMetric(hits/(hits+misses), "block_hit_rate")
	}
}

// BenchmarkBlockScanCold is the same scan with the cache disabled: every
// block decodes (and is charged) on every pass — the floor the cache is
// measured against.
func BenchmarkBlockScanCold(b *testing.B) {
	s, tbl := blockBenchStore(b, -1)
	before := s.Stats().Snapshot()
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if out := tbl.Scan(nil, nil, nil, 0); len(out) != 30000 {
			b.Fatalf("scan returned %d rows", len(out))
		}
	}
	d := Diff(before, s.Stats().Snapshot())
	if d.BlockCacheMisses > 0 {
		b.ReportMetric(0, "block_hit_rate")
		b.ReportMetric(float64(d.BlockReadBytes)/float64(d.BlockCacheMisses), "read_bytes_per_fetch")
	}
}

// BenchmarkBlockPointGetAbsent hammers point lookups for keys no run holds:
// the bloom filters should answer nearly all of them without touching a
// block. Reports the realized negative rate.
func BenchmarkBlockPointGetAbsent(b *testing.B) {
	s, tbl := blockBenchStore(b, 64<<20)
	before := s.Stats().Snapshot()
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, ok := tbl.Get([]byte(fmt.Sprintf("absent/%08d", n))); ok {
			b.Fatal("absent key found")
		}
	}
	d := Diff(before, s.Stats().Snapshot())
	if d.BloomChecks > 0 {
		b.ReportMetric(float64(d.BloomNegatives)/float64(d.BloomChecks), "bloom_negative_rate")
	}
}

// BenchmarkBlockPointGetPresent measures warm-cache point reads of keys
// that exist, the bloom-pass + single-block-fetch path.
func BenchmarkBlockPointGetPresent(b *testing.B) {
	_, tbl := blockBenchStore(b, 64<<20)
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		i := n % 30000
		if _, ok := tbl.Get([]byte(fmt.Sprintf("traj/%03d/%08d", i%40, i))); !ok {
			b.Fatalf("key %d missing", i)
		}
	}
}

// BenchmarkBlockBuild measures the flush-side encoder: streaming a sorted
// entry batch through the block builder, bloom included.
func BenchmarkBlockBuild(b *testing.B) {
	es := make([]entry, 20000)
	for i := range es {
		es[i] = entry{
			key:   []byte(fmt.Sprintf("traj/%03d/%08d", i%40, i)),
			value: []byte("value-payload-payload-payload"),
		}
	}
	cfg := &blockConfig{blockBytes: 4 << 10, bloomBits: 10}
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if r := newRunFromEntries(cfg, es); r.count != len(es) {
			b.Fatal("bad run")
		}
	}
}
