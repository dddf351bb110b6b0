package kvstore

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Fault model: the simulated cluster can be configured to misbehave the way
// the paper's five-node HBase deployment does in practice — transient RPC
// failures, slow region servers, and regions that go briefly unavailable
// around splits and compactions. Faults apply only to the client-facing
// context-aware operations (ScanCtx, ScanRangesCtx, GetCtx, PutCtx); the
// plain methods model trusted in-process access (WAL replay,
// index rewrites) and stay infallible.
//
// Every fault decision is a pure function of (Seed, region id, per-region
// attempt sequence), so a single-threaded test replays the exact same fault
// schedule on every run regardless of goroutine scheduling.

// Typed retryable errors surfaced by the fault layer.
var (
	// ErrTransientRPC is an injected per-attempt RPC failure (network blip,
	// dropped connection). Always retryable.
	ErrTransientRPC = errors.New("kvstore: transient rpc failure")
	// ErrRegionUnavailable is returned while a region is inside its
	// post-split/post-compaction unavailability window. Retryable: the
	// window drains by a fixed number of client RPCs.
	ErrRegionUnavailable = errors.New("kvstore: region temporarily unavailable")
	// ErrRetriesExhausted wraps a retryable error once the retry policy has
	// given up on an operation.
	ErrRetriesExhausted = errors.New("kvstore: retries exhausted")
)

// IsRetryable reports whether err is a transient fault worth retrying.
// ErrNodeDead counts: a retry may land after failover re-homes the region.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrTransientRPC) || errors.Is(err, ErrRegionUnavailable) || errors.Is(err, ErrNodeDead)
}

// FaultConfig configures deterministic fault injection for a Store. The zero
// value disables injection entirely.
type FaultConfig struct {
	// Seed drives every fault decision; two stores with the same seed, data
	// and (single-threaded) operation order inject identical faults.
	Seed int64
	// PFailRPC is the probability that one client RPC attempt fails with
	// ErrTransientRPC.
	PFailRPC float64
	// SlowNodes maps a node id to a latency multiplier (> 1 slows every
	// region hosted on that node); it scales the simulated per-task cost.
	SlowNodes map[int]float64
	// UnavailableRPCsAfterSplit makes each region produced by a split (and
	// each region of a table-level compaction) fail its next N client RPC
	// attempts with ErrRegionUnavailable — the brief unavailability HBase
	// clients observe around region moves.
	UnavailableRPCsAfterSplit int
}

// Enabled reports whether any fault dimension is active.
func (f FaultConfig) Enabled() bool {
	return f.PFailRPC > 0 || len(f.SlowNodes) > 0 || f.UnavailableRPCsAfterSplit > 0
}

// RetryPolicy is the client-side retry schedule for retryable faults.
// Backoff is charged analytically (no sleeping) into the simulated I/O
// makespan so the cost model stays precise and tests stay fast.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per RPC (first try
	// included). <= 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// JitterFrac scales deterministic jitter: each delay is multiplied by
	// 1 + JitterFrac*(u-0.5) with u uniform in [0,1).
	JitterFrac float64
}

// DefaultRetryPolicy mirrors a conservative HBase client: 4 attempts,
// 10ms → 2s exponential backoff with 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

func (p *RetryPolicy) sanitize() {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = def.Multiplier
	}
	if p.JitterFrac < 0 || p.JitterFrac > 1 {
		p.JitterFrac = def.JitterFrac
	}
}

// backoff returns the analytic delay before retry number `retry` (1-based),
// jittered by a deterministic unit sample.
func (p RetryPolicy) backoff(retry int, unit float64) time.Duration {
	d := float64(p.BaseBackoff)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	d *= 1 + p.JitterFrac*(unit-0.5)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// faultInjector evaluates the fault schedule. It is stateless beyond its
// config: randomness comes from hashing (seed, region id, attempt seq).
type faultInjector struct {
	cfg FaultConfig
}

func newFaultInjector(cfg FaultConfig) *faultInjector {
	if !cfg.Enabled() {
		return nil
	}
	return &faultInjector{cfg: cfg}
}

// splitmix64 is a strong 64-bit finalizer (Steele et al.), used as a
// counter-based PRNG so fault decisions are order-independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a deterministic uniform sample in [0,1) for one (region,
// sequence) pair.
func (in *faultInjector) unit(regionID, seq int64) float64 {
	h := splitmix64(uint64(in.cfg.Seed)<<1 ^ splitmix64(uint64(regionID)<<17^uint64(seq)))
	return float64(h>>11) / float64(1<<53)
}

// attempt evaluates one client RPC attempt against a region: nil means the
// RPC goes through; otherwise a typed retryable error. stats counters record
// every injected fault.
func (in *faultInjector) attempt(r *region, stats *Stats) error {
	if in == nil {
		return nil
	}
	if in.cfg.UnavailableRPCsAfterSplit > 0 && r.takeUnavailable() {
		if stats != nil {
			stats.FailedRPCs.Add(1)
		}
		return ErrRegionUnavailable
	}
	if in.cfg.PFailRPC > 0 {
		seq := r.faultSeq.Add(1)
		if in.unit(r.id, seq) < in.cfg.PFailRPC {
			if stats != nil {
				stats.FailedRPCs.Add(1)
			}
			return ErrTransientRPC
		}
	}
	return nil
}

// latencyScale returns the slow-node multiplier for a node (1 when healthy).
func (in *faultInjector) latencyScale(node int) float64 {
	if in == nil || len(in.cfg.SlowNodes) == 0 {
		return 1
	}
	if m, ok := in.cfg.SlowNodes[node]; ok && m > 0 {
		return m
	}
	return 1
}

// markUnavailable opens a full unavailability window on a region (splits:
// the whole region moved).
func (in *faultInjector) markUnavailable(r *region) {
	if in == nil || in.cfg.UnavailableRPCsAfterSplit <= 0 {
		return
	}
	r.unavail.Store(int64(in.cfg.UnavailableRPCsAfterSplit))
}

// markUnavailableBytes opens an unavailability window scaled to the
// fraction of the region's bytes the operation actually rewrote (ceiling,
// minimum one RPC when anything moved): the post-compaction blip is bounded
// to the swapped tier instead of the whole region, so the tiered policy's
// frequent but small merges don't inflate injected unavailability.
// Deterministic: both arguments are pure functions of the write sequence.
func (in *faultInjector) markUnavailableBytes(r *region, swapped, total int) {
	if in == nil || in.cfg.UnavailableRPCsAfterSplit <= 0 || swapped <= 0 {
		return
	}
	n := in.cfg.UnavailableRPCsAfterSplit
	if total > swapped {
		n = (n*swapped + total - 1) / total
		if n < 1 {
			n = 1
		}
	}
	r.unavail.Store(int64(n))
}

// ------------------------------------------------------- query budget ---

// QueryBudget accumulates the simulated (analytic) time a query has spent —
// backoff delays and cluster-side I/O makespans that were charged without
// sleeping. Deadline checks compare now + simulated time against the context
// deadline, so a query with a 50ms deadline and 100ms of analytic backoff
// expires exactly as a real cluster client would, with no test ever
// sleeping.
type QueryBudget struct {
	sim atomic.Int64 // nanoseconds of analytic time consumed
}

type queryBudgetKey struct{}

// WithQueryBudget attaches a fresh analytic-time budget to ctx. Query entry
// points call this once so every storage operation underneath shares one
// clock.
func WithQueryBudget(ctx context.Context) context.Context {
	return context.WithValue(ctx, queryBudgetKey{}, &QueryBudget{})
}

func budgetFrom(ctx context.Context) *QueryBudget {
	b, _ := ctx.Value(queryBudgetKey{}).(*QueryBudget)
	return b
}

// Charge adds analytic time to the budget (no-op on a nil budget).
func (b *QueryBudget) Charge(d time.Duration) {
	if b != nil && d > 0 {
		b.sim.Add(int64(d))
	}
}

// SimElapsed returns the analytic time consumed so far.
func (b *QueryBudget) SimElapsed() time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.sim.Load())
}

// DeadlineExceeded reports whether ctx's deadline has passed once analytic
// time is added to the real clock, or ctx is otherwise done.
func DeadlineExceeded(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return false
	}
	return !time.Now().Add(budgetFrom(ctx).SimElapsed()).Before(dl)
}

// ScanStatus reports the fault/retry outcome of one context-aware scan.
type ScanStatus struct {
	// Partial is true when at least one region task was skipped or gave up
	// (deadline expired or retries exhausted): the returned rows are a
	// correct subset of the full answer.
	Partial bool
	// RetriedRPCs counts retry attempts performed.
	RetriedRPCs int64
	// FailedRegions counts region tasks that contributed no rows.
	FailedRegions int
	// FollowerReads counts region tasks served by a follower replica under
	// the query's staleness bound instead of the leader.
	FollowerReads int64
}

func (s *ScanStatus) merge(o ScanStatus) {
	s.Partial = s.Partial || o.Partial
	s.RetriedRPCs += o.RetriedRPCs
	s.FailedRegions += o.FailedRegions
	s.FollowerReads += o.FollowerReads
}
