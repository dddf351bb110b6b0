package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tman-db/tman/internal/model"
)

// qpBenchState is built once and shared across client-count sub-benchmarks
// so the (expensive) data load does not repeat.
type qpBenchState struct {
	engine  *Engine
	queries []qpWorkloadQuery
}

var qpBench *qpBenchState

// qpBenchSetup loads 3000 trajectories and a 256-query mixed workload
// (spatial / temporal / spatio-temporal / id-temporal) into an engine with
// the serving cache knobs (16 LFU shards, 1024 memoized plans). The
// simulated cluster network is zeroed out (as in BenchmarkSRQHot) so the
// measurement is the in-process query-serving path: cache locking, plan
// generation, scan + decode.
func qpBenchSetup(b *testing.B) *qpBenchState {
	b.Helper()
	if qpBench != nil {
		return qpBench
	}
	cfg := testConfig()
	cfg.CacheShards = 16
	cfg.PlanCacheSize = 1024
	cfg.KV.RPCLatencyMicros = 0
	cfg.KV.TransferMBps = 0
	cfg.KV.DiskMBps = 0
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	trajs := make([]*model.Trajectory, 0, 3000)
	for i := 0; i < 3000; i++ {
		tr := genTrajectory(rng, fmt.Sprintf("obj-%d", i%50), fmt.Sprintf("traj-%05d", i))
		trajs = append(trajs, tr)
		if err := e.Put(tr); err != nil {
			b.Fatal(err)
		}
	}
	queries := genQueryMixShaped(rand.New(rand.NewSource(6)), trajs, 256, qpHotMix)
	// Warm every query once: the contract under test is the steady-state
	// cached workload (LFU populated, plans memoized where enabled).
	for _, q := range queries {
		if _, _, err := runWorkloadQuery(e, q); err != nil {
			b.Fatal(err)
		}
	}
	qpBench = &qpBenchState{engine: e, queries: queries}
	return qpBench
}

// benchClients drains b.N queries of the mixed workload through n
// concurrent client goroutines and reports aggregate throughput plus
// client-observed latency quantiles.
func benchClients(b *testing.B, st *qpBenchState, clients int) {
	b.Helper()
	e, queries := st.engine, st.queries
	e.ResetQueryPathStats()
	var next int64
	lat := make([][]time.Duration, clients)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, b.N/clients+1)
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for {
				n := int(atomic.AddInt64(&next, 1)) - 1
				if n >= b.N {
					break
				}
				q := queries[rng.Intn(len(queries))]
				t0 := time.Now()
				if _, _, err := runWorkloadQuery(e, q); err != nil {
					b.Error(err)
					break
				}
				mine = append(mine, time.Since(t0))
			}
			lat[id] = mine
		}(c)
	}
	wg.Wait()
	elapsed := b.Elapsed()
	b.StopTimer()

	all := make([]time.Duration, 0, b.N)
	for _, m := range lat {
		all = append(all, m...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 && elapsed > 0 {
		b.ReportMetric(float64(len(all))/elapsed.Seconds(), "qps")
		b.ReportMetric(float64(all[len(all)/2].Microseconds()), "p50_us")
		b.ReportMetric(float64(all[(len(all)-1)*99/100].Microseconds()), "p99_us")
	}
	if s := e.CacheStats(); s.Hits+s.Misses > 0 {
		b.ReportMetric(float64(s.Hits)/float64(s.Hits+s.Misses), "cache_hit_ratio")
	}
}

// BenchmarkQueryPathConcurrent measures the tuned query-serving path
// (sharded LFU + singleflight + plan cache + parallel enumeration) under
// 1/4/8 concurrent clients.
func BenchmarkQueryPathConcurrent(b *testing.B) {
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			st := qpBenchSetup(b)
			benchClients(b, st, clients)
		})
	}
}
