package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Benchmarks for the batched write path: per-region MultiPut with sorted
// finger insertion and WAL group commit versus one-row-at-a-time Put. Run
// via `make bench-write` to regenerate BENCH_writepath.json.
//
// Each iteration ingests the same ingestRows-row working set into a durable
// (WAL-backed) store, so the numbers include the full put path: table
// routing, region locking, memtable insertion, cost-model accounting, and
// the WAL append+flush — exactly what separates group commit from per-row
// commit. After the first iteration the rows are replacements, keeping the
// store size and flush activity in steady state.

const ingestRows = 4096

// buildIngestRows returns a shuffled working set so the batched path pays
// its sort every iteration and the sequential path sees random-order keys.
func buildIngestRows() []KV {
	rows := make([]KV, ingestRows)
	for i := range rows {
		rows[i] = KV{
			Key:   []byte(fmt.Sprintf("key-%08d", i)),
			Value: []byte(fmt.Sprintf("value-payload-%08d-padding-padding-padding-padding-padding-padding", i)),
		}
	}
	rng := rand.New(rand.NewSource(77))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

func benchmarkIngest(b *testing.B, regions int, batched bool) {
	opts := DefaultOptions()
	opts.RegionMaxBytes = 1 << 30 // geometry fixed by pre-split, no auto splits
	opts.MemtableFlushBytes = 256 << 10
	s, err := OpenDir(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tbl := s.OpenTable("bench")
	if regions > 1 {
		var keys [][]byte
		for i := 1; i < regions; i++ {
			keys = append(keys, []byte(fmt.Sprintf("key-%08d", i*ingestRows/regions)))
		}
		if err := tbl.PreSplit(keys); err != nil {
			b.Fatal(err)
		}
	}
	shuffled := buildIngestRows()
	scratch := make([]KV, len(shuffled))
	b.ResetTimer()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if batched {
			// MultiPut sorts its input in place; hand it a fresh copy of the
			// shuffled order so every iteration pays the real sort.
			copy(scratch, shuffled)
			tbl.MultiPut(scratch)
		} else {
			for _, kv := range shuffled {
				tbl.Put(kv.Key, kv.Value)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ingestRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	if rc := tbl.RegionCount(); rc != regions {
		b.Fatalf("region count drifted: %d, want %d", rc, regions)
	}
}

// BenchmarkSustainedIngestTiered pushes a fixed multi-run volume (~64 MiB of
// ~1 KiB rows) through one table and reports the two numbers the tiered
// scheduler exists to move: write amplification (bytes compaction rewrote
// per byte flushed) and p99 batch-put latency (compaction stalls surface as
// tail latency on the write path). In-memory store: WAL fsync noise would
// drown the rewrite signal this benchmark isolates.
func BenchmarkSustainedIngestTiered(b *testing.B) {
	const (
		rows      = 64 << 10 // x ~1 KiB values = ~64 MiB raw ingest
		batchSize = 256
	)
	var lats []time.Duration
	var writeAmp float64
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		opts := DefaultOptions()
		opts.RegionMaxBytes = 32 << 20
		opts.MemtableFlushBytes = 512 << 10
		s := Open(opts)
		tbl, err := s.CreateTable("sustained")
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		val := make([]byte, 1024)
		rng.Read(val)
		batch := make([]KV, 0, batchSize)
		b.StartTimer()
		for i := 0; i < rows; i++ {
			batch = append(batch, KV{
				Key:   []byte(fmt.Sprintf("traj/%04d/%08d", rng.Intn(512), i)),
				Value: val,
			})
			if len(batch) == batchSize {
				t0 := time.Now()
				tbl.MultiPut(batch)
				lats = append(lats, time.Since(t0))
				batch = batch[:0]
			}
		}
		s.Quiesce()
		b.StopTimer()
		snap := s.Stats().Snapshot()
		if snap.BytesFlushed == 0 {
			b.Fatal("nothing flushed — thresholds too high for the workload")
		}
		// The workload is deterministic, so the ratio is identical every
		// iteration; latencies aggregate across iterations for a stable p99.
		writeAmp = float64(snap.BytesCompacted) / float64(snap.BytesFlushed)
		s.Close()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(writeAmp, "write-amp")
	b.ReportMetric(float64(lats[len(lats)*99/100].Microseconds()), "p99-batch-us")
	// The max batch is the one that paid a region split (t.mu held for the
	// materialize); it bounds the worst write stall the policy causes.
	b.ReportMetric(float64(lats[len(lats)-1].Microseconds())/1000, "max-batch-ms")
	b.ReportMetric(float64(rows)*1024*float64(b.N)/b.Elapsed().Seconds()/(1<<20), "MiB/s")
}

func BenchmarkWriteSequential1Region(b *testing.B)   { benchmarkIngest(b, 1, false) }
func BenchmarkWriteSequential4Regions(b *testing.B)  { benchmarkIngest(b, 4, false) }
func BenchmarkWriteSequential16Regions(b *testing.B) { benchmarkIngest(b, 16, false) }
func BenchmarkWriteBatched1Region(b *testing.B)      { benchmarkIngest(b, 1, true) }
func BenchmarkWriteBatched4Regions(b *testing.B)     { benchmarkIngest(b, 4, true) }
func BenchmarkWriteBatched16Regions(b *testing.B)    { benchmarkIngest(b, 16, true) }
