package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tman-db/tman/internal/obs"
)

// KV is a key-value row returned by scans.
type KV struct {
	Key   []byte
	Value []byte
}

// KeyRange is a half-open scan range [Start, End). A nil Start means the
// beginning of the table; a nil End means the end of the table.
type KeyRange struct {
	Start, End []byte
}

// Table is a range-partitioned ordered map. Regions split automatically as
// the table grows; all rows live in exactly one region at a time.
type Table struct {
	name  string
	store *Store

	mu      sync.RWMutex
	regions []*region // ordered by startKey; regions[0].startKey == nil

	// bcfg is the block config every region of this table builds runs
	// with: the store-wide config, or a copy carrying the fence extractor
	// the store was opened with for this table. Immutable; splits and
	// replication followers inherit it so fences survive topology changes.
	bcfg *blockConfig
}

// newTable creates an empty table: one region over the whole key space.
func newTable(name string, store *Store) *Table {
	t := tableShell(name, store)
	r := t.newRegion(store.nextRegionID(), nil, nil, store.nextNode())
	store.initReplication(r)
	t.installRegions("table", nil, []*region{r}, func() { t.regions = []*region{r} })
	return t
}

// tableShell is a table without regions yet: newTable gives it its first,
// recovery the ones the manifest names.
func tableShell(name string, store *Store) *Table {
	t := &Table{name: name, store: store, bcfg: store.bcfg}
	if f := store.fences[name]; f != nil {
		cfg := *store.bcfg // shares cache and stats; diverges only in fence
		cfg.fence = f
		t.bcfg = &cfg
	}
	return t
}

// newRegion builds a leader region of this table with the store's tuning,
// stamped with the table's identity, the store's background-job recorder
// and — on a durable store — its persister.
func (t *Table) newRegion(id int64, start, end []byte, node int) *region {
	o := &t.store.opts
	r := newRegion(id, start, end, node, o.MemtableFlushBytes, o.MaxRunsPerRegion, t.store.compactPol(), t.store.fl, t.bcfg)
	r.tname = t.name
	r.jobs = t.store.jobs
	r.per = t.store.per
	return r
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// regionForKey returns the region owning key. Caller must hold t.mu (R or W).
func (t *Table) regionForKey(key []byte) *region {
	// Binary search: last region whose startKey <= key.
	i := sort.Search(len(t.regions), func(i int) bool {
		r := t.regions[i]
		return r.startKey != nil && bytes.Compare(r.startKey, key) > 0
	})
	return t.regions[i-1]
}

// PreSplit carves an empty table into len(keys)+1 regions at the given
// strictly ascending split keys — the bulk-load pre-split of an HBase
// deployment, letting a batched ingest fan out across regions from the
// first row instead of waiting for threshold-driven splits. It does not
// count toward the RegionSplits stat (nothing moved) and fails on a table
// that already holds data or was already split.
func (t *Table) PreSplit(keys [][]byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.regions) != 1 {
		return errors.New("kvstore: PreSplit on an already-split table")
	}
	if t.regions[0].size() != 0 {
		return errors.New("kvstore: PreSplit on a non-empty table")
	}
	for i, k := range keys {
		if len(k) == 0 {
			return errors.New("kvstore: PreSplit keys must be non-empty")
		}
		if i > 0 && bytes.Compare(keys[i-1], k) >= 0 {
			return errors.New("kvstore: PreSplit keys must be strictly ascending")
		}
	}
	if len(keys) == 0 {
		return nil
	}
	regions := make([]*region, 0, len(keys)+1)
	var start []byte
	for _, k := range keys {
		regions = append(regions, t.newRegion(t.store.nextRegionID(), start, k, t.store.nextNode()))
		start = k
	}
	regions = append(regions, t.newRegion(t.store.nextRegionID(), start, nil, t.store.nextNode()))
	for _, r := range regions {
		t.store.initReplication(r)
	}
	t.installRegions("table", t.regions, regions, func() { t.regions = regions })
	return nil
}

// Put inserts or replaces a row. Key and value are retained by the table;
// callers must not mutate them afterwards. Put models a trusted in-process
// write (WAL replay, index rewrites) and never fails; client
// writes that should observe cluster faults go through PutCtx.
func (t *Table) Put(key, value []byte) {
	seg := t.store.logMutation(opPut, t.name, key, value)
	t.applyPut(key, value, seg)
	t.store.settle(seg)
}

// applyPut is Put after the log: the live path and log replay share it.
func (t *Table) applyPut(key, value []byte, seg *walSegment) {
	t.mu.RLock()
	r := t.regionForKey(key)
	wb := r.put(key, value, seg)
	t.mu.RUnlock()
	t.store.stats.Puts.Add(1)
	if wb >= int64(t.store.opts.RegionMaxBytes) {
		t.maybeSplit(r)
	}
}

// PutCtx is the client-RPC form of Put: with fault injection enabled the
// write may be retried per the store's RetryPolicy and fails with a typed
// error once retries or the context deadline are exhausted. The region is
// resolved once and the retry loop and the write run under the same table
// lock acquisition, so the write cannot land on a different region than the
// one that served the RPC.
func (t *Table) PutCtx(ctx context.Context, key, value []byte) error {
	t.mu.RLock()
	r := t.regionForKey(key)
	if err := t.rpcWithRetry(ctx, r); err != nil {
		t.mu.RUnlock()
		return err
	}
	seg := t.store.logMutation(opPut, t.name, key, value)
	wb := r.put(key, value, seg)
	t.mu.RUnlock()
	t.store.settle(seg)
	t.store.stats.Puts.Add(1)
	if wb >= int64(t.store.opts.RegionMaxBytes) {
		t.maybeSplit(r)
	}
	return nil
}

// Delete removes a row (writes a tombstone).
func (t *Table) Delete(key []byte) {
	seg := t.store.logMutation(opDelete, t.name, key, nil)
	t.applyDelete(key, seg)
	t.store.settle(seg)
}

func (t *Table) applyDelete(key []byte, seg *walSegment) {
	t.mu.RLock()
	r := t.regionForKey(key)
	r.delete(key, seg)
	t.mu.RUnlock()
	t.store.stats.Deletes.Add(1)
}

// Get returns the value stored under key (trusted in-process path).
func (t *Table) Get(key []byte) (value []byte, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.regionForKey(key).get(key)
}

// GetCtx is the client-RPC form of Get: fallible under fault injection,
// deadline-aware, retried per the store's RetryPolicy.
func (t *Table) GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r := t.regionForKey(key)
	if err := t.rpcWithRetry(ctx, r); err != nil {
		return nil, false, err
	}
	v, ok := r.get(key)
	return v, ok, nil
}

// rpcWithRetry runs the client retry loop for one point RPC against a
// region: injected faults are retried with analytic exponential backoff
// (charged into SimIONanos and the query budget, never slept) until the
// policy or the context deadline gives up.
func (t *Table) rpcWithRetry(ctx context.Context, r *region) error {
	in := t.store.injector
	pol := t.store.opts.Retry
	budget := budgetFrom(ctx)
	deadline, hasDL := ctx.Deadline()
	var local time.Duration
	charge := func() {
		if local > 0 {
			t.store.stats.SimIONanos.Add(int64(local))
			budget.Charge(local)
		}
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			charge()
			return err
		}
		if hasDL && !time.Now().Add(budget.SimElapsed()+local).Before(deadline) {
			charge()
			return context.DeadlineExceeded
		}
		var err error
		if !t.store.nodeAlive(r.nodeID()) {
			t.store.stats.FailedRPCs.Add(1)
			err = ErrNodeDead
		} else {
			err = in.attempt(r, &t.store.stats)
		}
		if err == nil {
			charge()
			return nil
		}
		if attempt >= pol.MaxAttempts {
			charge()
			return fmt.Errorf("kvstore: %d attempts on table %q: %w", attempt, t.name, errors.Join(ErrRetriesExhausted, err))
		}
		b := pol.backoff(attempt, unitOrHalf(in, r))
		local += b
		t.store.stats.BackoffNanos.Add(int64(b))
		t.store.stats.RetriedRPCs.Add(1)
	}
}

// unitOrHalf samples the deterministic jitter unit, or the midpoint when no
// injector is configured (node kills can force retries without one).
func unitOrHalf(in *faultInjector, r *region) float64 {
	if in == nil {
		return 0.5
	}
	return in.unit(r.id, r.faultSeq.Add(1))
}

// maybeSplit splits region r in two if it is still oversized. The table
// write lock excludes scans and other writers for the duration. The split
// decision runs on the monotonic ingest metric (region.writeBytes), which is
// a pure function of the write sequence — never of background-flush timing —
// so region geometry is deterministic for a fixed workload.
func (t *Table) maybeSplit(r *region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Region may have been split by a racing writer; confirm it's still ours.
	idx := -1
	for i, cand := range t.regions {
		if cand == r {
			idx = i
			break
		}
	}
	if idx < 0 || r.writeBytes.Load() < int64(t.store.opts.RegionMaxBytes) {
		return
	}
	job := t.store.jobs.Begin("split", t.name, r.id)
	defer t.store.jobs.End(job)
	entries, median, merged := r.splitEntries(&t.store.stats)
	if median == nil {
		// Nothing (or a single row) survives compaction; re-seed the ingest
		// metric from actual content so puts don't re-attempt every time.
		r.adoptMerged(merged)
		r.writeBytes.Store(int64(r.size()))
		return
	}
	cut := sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].key, median) >= 0
	})
	if cut == 0 || cut == len(entries) {
		// Degenerate key distribution (everything on one side): same
		// re-seed so an overwrite-heavy region doesn't loop on splitting.
		r.adoptMerged(merged)
		r.writeBytes.Store(entriesCharge(entries))
		return
	}
	left := t.newRegion(t.store.nextRegionID(), r.startKey, median, r.nodeID())
	right := t.newRegion(t.store.nextRegionID(), median, r.endKey, t.store.nextNode())
	leftCharge, rightCharge := entriesCharge(entries[:cut]), entriesCharge(entries[cut:])
	left.runs = []*blockRun{newRunFromEntries(t.bcfg, entries[:cut])}
	right.runs = []*blockRun{newRunFromEntries(t.bcfg, entries[cut:])}
	left.writeBytes.Store(leftCharge)
	right.writeBytes.Store(rightCharge)
	job.AddBytesRead(leftCharge + rightCharge)
	job.AddBytesWritten(int64(left.runs[0].rawBytes + right.runs[0].rawBytes))
	job.AddItems(int64(len(entries)))
	// Children get fresh replication groups seeded from their runs; the
	// parent's group (and its followers) is dropped with the parent.
	t.store.initReplication(left)
	t.store.initReplication(right)
	// Freshly moved regions are briefly unavailable to clients, as in HBase.
	t.store.injector.markUnavailable(left)
	t.store.injector.markUnavailable(right)
	t.installRegions("split", []*region{r}, []*region{left, right}, func() {
		t.regions = append(t.regions[:idx], append([]*region{left, right}, t.regions[idx+1:]...)...)
	})
	if p := t.store.per; p != nil {
		// The children's files hold the parent's memtable rows too.
		r.flushMu.Lock()
		r.detach()
		r.flushMu.Unlock()
		p.dropCovered()
	}
	t.store.stats.RegionSplits.Add(1)
}

// writeTask is one region's share of a MultiPut: the contiguous key-sorted
// row sub-slice owned by that region, plus the slots the worker writes its
// outcome into. Tasks are held in a per-call slice, so each worker writes
// only to its own element and no synchronization beyond the WaitGroup is
// needed.
type writeTask struct {
	reg    *region
	rows   []KV
	seg    *walSegment // log segment the memtables taking the rows pin
	wb     int64       // region ingest volume after apply (split check)
	cost   time.Duration
	failed bool
}

// runWriteTask applies one region batch and charges the analytic cost model
// one batch RPC — the HBase batch-mutate analogue: latency is paid once per
// region, transfer and disk once per byte.
func (t *Table) runWriteTask(tk *writeTask) {
	tk.wb = tk.reg.putBatch(tk.rows, tk.seg)
	t.store.stats.RPCs.Add(1)
	rpcLatency := time.Duration(t.store.opts.RPCLatencyMicros) * time.Microsecond
	io := rpcLatency
	if t.store.opts.TransferMBps > 0 || t.store.opts.DiskMBps > 0 {
		var bytes int
		for i := range tk.rows {
			bytes += len(tk.rows[i].Key) + len(tk.rows[i].Value)
		}
		if mbps := t.store.opts.TransferMBps; mbps > 0 {
			io += time.Duration(float64(bytes) / float64(mbps) * float64(time.Second) / (1 << 20))
		}
		if mbps := t.store.opts.DiskMBps; mbps > 0 {
			io += time.Duration(float64(bytes) / float64(mbps) * float64(time.Second) / (1 << 20))
		}
	}
	if scale := t.store.injector.latencyScale(tk.reg.nodeID()); scale != 1 {
		io = time.Duration(float64(io) * scale)
	}
	tk.cost += io
}

// sortRowsStable orders a batch by key, keeping input order among
// duplicates (later wins at apply time). An index array sorted with the
// unstable pdqsort and the original position as tie-breaker is equivalent
// to a stable sort of the rows, and profiles far cheaper than the rotation
// heavy in-place stable merge (or the reflection-based sort.SliceStable).
func sortRowsStable(rows []KV) {
	idx := make([]int32, len(rows))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := bytes.Compare(rows[a].Key, rows[b].Key); c != 0 {
			return c
		}
		return int(a - b)
	})
	out := make([]KV, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	copy(rows, out)
}

// groupWriteTasks carves key-sorted rows into per-region contiguous
// sub-slices. Caller must hold t.mu (R or W).
func (t *Table) groupWriteTasks(rows []KV, seg *walSegment) []writeTask {
	tasks := make([]writeTask, 0, 4)
	i := 0
	for i < len(rows) {
		r := t.regionForKey(rows[i].Key)
		j := len(rows)
		if r.endKey != nil {
			j = i + sort.Search(len(rows)-i, func(k int) bool {
				return bytes.Compare(rows[i+k].Key, r.endKey) >= 0
			})
		}
		tasks = append(tasks, writeTask{reg: r, rows: rows[i:j], seg: seg})
		i = j
	}
	return tasks
}

// finishMultiPut runs the shared post-apply accounting: per-row Puts, the
// simulated I/O makespan over the region batches (parallel tasks overlap up
// to the parallelism bound), and the split checks for regions that crossed
// the threshold.
func (t *Table) finishMultiPut(tasks []writeTask, applied int, budget *QueryBudget) {
	t.store.stats.Puts.Add(int64(applied))
	var total, maxCost time.Duration
	for i := range tasks {
		c := tasks[i].cost
		total += c
		if c > maxCost {
			maxCost = c
		}
	}
	par := t.store.opts.Parallelism
	if par < 1 {
		par = 1
	}
	makespan := total / time.Duration(par)
	if maxCost > makespan {
		makespan = maxCost
	}
	t.store.stats.SimIONanos.Add(int64(makespan))
	budget.Charge(makespan)
	for i := range tasks {
		if !tasks[i].failed && tasks[i].wb >= int64(t.store.opts.RegionMaxBytes) {
			t.maybeSplit(tasks[i].reg)
		}
	}
}

// MultiPut inserts or replaces a batch of rows in one operation: rows are
// sorted and grouped into per-region contiguous batches, the WAL receives
// the whole batch as a single group-commit record, and the region batches
// apply in parallel on the store's shared worker pool, each charged one
// batch RPC by the cost model — the HBase batch-mutate shape. Rows are
// sorted in place; among duplicate keys the later row wins. Keys and values
// are retained by the table; callers must not mutate them afterwards.
//
// MultiPut models a trusted in-process write (WAL replay, bulk index
// rebuilds) and never fails; client batches that should observe cluster
// faults go through MultiPutCtx.
func (t *Table) MultiPut(rows []KV) {
	if len(rows) == 0 {
		return
	}
	sortRowsStable(rows)
	seg := t.store.logBatch(t.name, rows)
	t.applyBatch(rows, seg)
	t.store.settle(seg)
}

// applyBatch is MultiPut after the sort and the log: the live path and log
// replay share it.
func (t *Table) applyBatch(rows []KV, seg *walSegment) {
	t.mu.RLock()
	tasks := t.groupWriteTasks(rows, seg)
	if len(tasks) == 1 {
		// Single-region batch: apply inline, skipping the pool handoff.
		t.runWriteTask(&tasks[0])
	} else {
		var wg sync.WaitGroup
		run := func(tk *writeTask) { t.runWriteTask(tk) }
		wg.Add(len(tasks))
		for i := range tasks {
			t.store.pool.submit(poolJob{write: run, wt: &tasks[i], wg: &wg})
		}
		wg.Wait()
	}
	t.mu.RUnlock()
	t.finishMultiPut(tasks, len(rows), nil)
}

// MultiPutReport describes the per-region outcome of a MultiPutCtx.
type MultiPutReport struct {
	// Regions is the number of region batches the rows grouped into.
	Regions int
	// Applied and Failed count rows: Applied rows are durable and visible,
	// Failed rows (from regions whose retries or deadline ran out) were not
	// written at all — a region batch applies all-or-nothing.
	Applied int
	Failed  int
	// FailedRegions counts region batches that gave up.
	FailedRegions int
	// RetriedRPCs counts retry attempts performed across all batches.
	RetriedRPCs int64
	// Partial is true when at least one region batch failed: the write
	// landed on a strict subset of regions.
	Partial bool
	// FailedRanges lists the key ranges of the failed regions, so callers
	// can re-drive exactly the rows that were lost.
	FailedRanges []KeyRange
}

// MultiPutCtx is the client-RPC form of MultiPut, keeping the fault
// semantics of the other ...Ctx operations: each region batch runs the
// client retry loop with analytic backoff, gives up on exhausted retries or
// an expired deadline, and failed batches degrade the write gracefully —
// surviving regions still apply (all-or-nothing per region) and the report
// says which key ranges were lost. Only applied rows are logged to the WAL
// (one group-commit record). The returned error is non-nil only when ctx
// was canceled outright.
func (t *Table) MultiPutCtx(ctx context.Context, rows []KV) (MultiPutReport, error) {
	var rep MultiPutReport
	if len(rows) == 0 {
		return rep, nil
	}
	sortRowsStable(rows)

	injector := t.store.injector
	pol := t.store.opts.Retry
	budget := budgetFrom(ctx)
	deadline, hasDeadline := ctx.Deadline()
	expired := func(taskLocal time.Duration) bool {
		if ctx.Err() != nil {
			return true
		}
		if !hasDeadline {
			return false
		}
		return !time.Now().Add(budget.SimElapsed() + taskLocal).Before(deadline)
	}
	var retried atomic.Int64

	// The rows are logged after they are applied (only those that landed
	// are), so the memtables taking them pin the segment active now: the
	// record cannot land in an older one.
	var pin *walSegment
	if t.store.per != nil {
		pin = t.store.per.wal.pinActive()
	}
	t.mu.RLock()
	tasks := t.groupWriteTasks(rows, pin)
	var wg sync.WaitGroup
	run := func(tk *writeTask) {
		// Client retry loop: every injected fault costs one analytic
		// backoff; the batch gives up on deadline expiry or exhausted
		// attempts, failing only its own region (nothing applied there).
		for attempt := 1; ; attempt++ {
			if expired(tk.cost) {
				tk.failed = true
				return
			}
			var err error
			if !t.store.nodeAlive(tk.reg.nodeID()) {
				t.store.stats.FailedRPCs.Add(1)
				err = ErrNodeDead
			} else {
				err = injector.attempt(tk.reg, &t.store.stats)
			}
			if err == nil {
				break
			}
			if attempt >= pol.MaxAttempts {
				tk.failed = true
				return
			}
			b := pol.backoff(attempt, unitOrHalf(injector, tk.reg))
			tk.cost += b
			t.store.stats.BackoffNanos.Add(int64(b))
			retried.Add(1)
			t.store.stats.RetriedRPCs.Add(1)
		}
		t.runWriteTask(tk)
	}
	if len(tasks) == 1 {
		run(&tasks[0])
	} else {
		wg.Add(len(tasks))
		for i := range tasks {
			t.store.pool.submit(poolJob{write: run, wt: &tasks[i], wg: &wg})
		}
		wg.Wait()
	}

	rep.Regions = len(tasks)
	applied := 0
	for i := range tasks {
		if tasks[i].failed {
			rep.Partial = true
			rep.FailedRegions++
			rep.Failed += len(tasks[i].rows)
			rep.FailedRanges = append(rep.FailedRanges, KeyRange{Start: tasks[i].reg.startKey, End: tasks[i].reg.endKey})
			continue
		}
		applied += len(tasks[i].rows)
	}
	rep.Applied = applied
	// Log only the rows that actually landed, still as one batch record.
	if t.store.per != nil && applied > 0 {
		kept := rows
		if applied < len(rows) {
			kept = make([]KV, 0, applied)
			for i := range tasks {
				if !tasks[i].failed {
					kept = append(kept, tasks[i].rows...)
				}
			}
		}
		t.store.logBatch(t.name, kept).unpin()
	}
	t.mu.RUnlock()
	t.store.settle(pin)

	rep.RetriedRPCs = retried.Load()
	if rep.FailedRegions > 0 {
		t.store.stats.FailedRegions.Add(int64(rep.FailedRegions))
	}
	t.finishMultiPut(tasks, applied, budget)

	var err error
	if cerr := ctx.Err(); cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
		err = cerr
	}
	return rep, err
}

// Scan returns all live rows with key in [start, end) that pass the
// push-down filter, in key order. limit <= 0 means unlimited. Regions are
// scanned in parallel (bounded by the store's Parallelism option) and
// results are concatenated in region order, which preserves global key
// order.
func (t *Table) Scan(start, end []byte, filter Filter, limit int) []KV {
	return t.ScanRanges([]KeyRange{{Start: start, End: end}}, filter, limit)
}

// ScanCtx is the client-RPC form of Scan: deadline-aware and fallible under
// fault injection, returning a ScanStatus describing retries and partial
// results.
func (t *Table) ScanCtx(ctx context.Context, start, end []byte, filter Filter, limit int) ([]KV, ScanStatus, error) {
	return t.ScanRangesCtx(ctx, []KeyRange{{Start: start, End: end}}, filter, limit)
}

// ScanRanges executes many scan ranges as one parallel operation: the query
// windows of TMan's query processor. This trusted in-process form never
// fails and bypasses fault injection; client reads go through ScanRangesCtx.
func (t *Table) ScanRanges(ranges []KeyRange, filter Filter, limit int) []KV {
	out, _, _ := t.scanRanges(context.Background(), ranges, filter, limit, false)
	return out
}

// ScanRangesCtx executes many scan ranges as one parallel client operation.
// Ranges touching the same region are grouped into one scan task — the
// analogue of HBase's multi-row-range filter executing many windows in a
// single region RPC. If the input ranges are sorted and non-overlapping, the
// output is globally key-ordered.
//
// Under fault injection each region task runs the client retry loop:
// injected faults are retried with analytic exponential backoff charged into
// SimIONanos (nothing sleeps). A task that exhausts its retries, or a
// context deadline that expires once analytic time is accounted, degrades
// the scan gracefully: rows from the surviving regions are returned with
// ScanStatus.Partial set instead of an error. The returned error is non-nil
// only when ctx was canceled outright.
func (t *Table) ScanRangesCtx(ctx context.Context, ranges []KeyRange, filter Filter, limit int) ([]KV, ScanStatus, error) {
	return t.scanRanges(ctx, ranges, filter, limit, true)
}

// scanTask is one region's share of a multi-range scan: which ranges to
// visit, plus the slots the worker writes its results into. Tasks are held
// in a per-query slice, so each worker writes only to its own element and
// no synchronization beyond the WaitGroup is needed.
type scanTask struct {
	reg       *region
	rangeIdxs []int
	out       []KV
	cost      time.Duration
	rows      int64    // live rows the region scanners visited (trace attribution)
	acct      scanAcct // disk bytes, fence skips, cache traffic (trace attribution)
	node      int      // node that served the scan (leader or routed follower)
	follower  bool     // served by a bounded-staleness follower
	failed    bool
}

// singleRangeIdx is the shared index slice for the common one-window scan,
// avoiding a per-task allocation.
var singleRangeIdx = []int{0}

// runScanTask executes one region task: the client retry loop under fault
// injection, then the region scans, then the analytic I/O cost accounting.
// Results land in tk; only the retry and follower-read counters are shared
// across tasks.
//
// With a follower-read preference the serving copy is re-resolved on every
// attempt: a follower within the staleness bound (on the fastest live node)
// serves the scan, otherwise the leader does — and a dead leader node fails
// the attempt so a retry can land on a promoted or revived replica.
func (t *Table) runScanTask(tk *scanTask, ranges []KeyRange, filter Filter, limit int, fallible bool, injector *faultInjector, pref *ReadPref, expired func(time.Duration) bool, retried, followerReads *atomic.Int64) {
	pol := t.store.opts.Retry
	rpcLatency := time.Duration(t.store.opts.RPCLatencyMicros) * time.Microsecond
	mbps := t.store.opts.TransferMBps
	diskMBps := t.store.opts.DiskMBps

	serveReg, serveNode := tk.reg, tk.reg.nodeID()
	resolve := func() {
		serveReg, serveNode = tk.reg, tk.reg.nodeID()
		if pref == nil {
			return
		}
		if g := tk.reg.rep; g != nil {
			if reg, node := g.pickFollower(pref.MaxStalenessMS); reg != nil {
				serveReg, serveNode = reg, node
			}
		}
	}

	var cost time.Duration
	// Client retry loop: every injected fault costs one analytic backoff;
	// the task gives up on deadline expiry or exhausted attempts, failing
	// only its own region.
	for attempt := 1; fallible; attempt++ {
		if expired(cost) {
			tk.failed = true
			tk.cost = cost
			return
		}
		resolve()
		var err error
		if !t.store.nodeAlive(serveNode) {
			t.store.stats.FailedRPCs.Add(1)
			err = ErrNodeDead
		} else {
			err = injector.attempt(tk.reg, &t.store.stats)
		}
		if err == nil {
			break
		}
		if attempt >= pol.MaxAttempts {
			tk.failed = true
			tk.cost = cost
			return
		}
		b := pol.backoff(attempt, unitOrHalf(injector, tk.reg))
		cost += b
		t.store.stats.BackoffNanos.Add(int64(b))
		retried.Add(1)
		t.store.stats.RetriedRPCs.Add(1)
	}
	if serveReg != tk.reg {
		followerReads.Add(1)
		tk.follower = true
	}
	tk.node = serveNode
	var out []KV
	// One fence-charge budget per task: the windows of a multi-range scan
	// consult the same resident fence blobs, so the cumulative charge per
	// run is capped at one read of its blob.
	var fenceBudget map[*blockRun]int64
	if _, ok := filter.(FenceFilter); ok && len(tk.rangeIdxs) > 1 {
		fenceBudget = make(map[*blockRun]int64)
	}
	for _, ri := range tk.rangeIdxs {
		kr := ranges[ri]
		var hit bool
		var acct scanAcct
		out, hit, acct = serveReg.scan(kr.Start, kr.End, filter, limit, out, &t.store.stats, fenceBudget)
		tk.acct.add(acct)
		tk.rows += acct.RowsScanned
		if hit {
			break
		}
	}
	scanned := tk.acct.ScannedBytes
	tk.out = out
	t.store.stats.RPCs.Add(1)
	io := rpcLatency
	if diskMBps > 0 {
		io += time.Duration(float64(scanned) / float64(diskMBps) * float64(time.Second) / (1 << 20))
	}
	if mbps > 0 {
		var bytes int
		for _, kv := range out {
			bytes += len(kv.Key) + len(kv.Value)
		}
		io += time.Duration(float64(bytes) / float64(mbps) * float64(time.Second) / (1 << 20))
	}
	if scale := injector.latencyScale(serveNode); scale != 1 {
		io = time.Duration(float64(io) * scale)
	}
	tk.cost = cost + io
}

// scanRanges is the shared scan core. fallible selects the client-RPC
// behavior (fault injection, retries, deadline accounting).
//
// When the store's network model is enabled, every region task is charged
// one RPC latency plus transfer time for the bytes that passed the filter,
// so push-down savings show up in wall-clock measurements; slow-node
// multipliers and retry backoff are charged the same way.
func (t *Table) scanRanges(ctx context.Context, ranges []KeyRange, filter Filter, limit int, fallible bool) ([]KV, ScanStatus, error) {
	// Tracing: an untraced context costs exactly one Value lookup here (the
	// name concat is behind the nil check, so nothing allocates); a traced
	// one gets a span per scan with per-region child spans carrying the
	// cost-model attribution (rows visited/passed, analytic I/O).
	var scanSpan *obs.Span
	if parent := obs.SpanFrom(ctx); parent != nil {
		scanSpan = parent.StartChild("scan:" + t.name)
	}
	t.mu.RLock()
	var tasks []scanTask
	if len(ranges) == 1 {
		// Common single-window case: no per-task index slices at all.
		tasks = make([]scanTask, 0, len(t.regions))
		for _, reg := range t.regions {
			if reg.overlapsRange(ranges[0].Start, ranges[0].End) {
				tasks = append(tasks, scanTask{reg: reg, rangeIdxs: singleRangeIdx})
			}
		}
	} else {
		// Two passes: size exactly, then carve every task's range-index
		// list out of one shared backing array — two allocations for the
		// whole query instead of append churn per region.
		nTasks, nIdxs := 0, 0
		for _, reg := range t.regions {
			c := 0
			for _, kr := range ranges {
				if reg.overlapsRange(kr.Start, kr.End) {
					c++
				}
			}
			if c > 0 {
				nTasks++
				nIdxs += c
			}
		}
		tasks = make([]scanTask, 0, nTasks)
		idxBuf := make([]int, 0, nIdxs)
		for _, reg := range t.regions {
			start := len(idxBuf)
			for ri, kr := range ranges {
				if reg.overlapsRange(kr.Start, kr.End) {
					idxBuf = append(idxBuf, ri)
				}
			}
			if len(idxBuf) > start {
				tasks = append(tasks, scanTask{reg: reg, rangeIdxs: idxBuf[start:len(idxBuf):len(idxBuf)]})
			}
		}
	}

	var retried atomic.Int64
	par := t.store.opts.Parallelism
	if par < 1 {
		par = 1
	}

	injector := t.store.injector
	if !fallible {
		injector = nil
	}
	// Follower reads are a client-path feature: the trusted in-process scans
	// (snapshots, index rebuilds) always read the leader.
	var pref *ReadPref
	if fallible && t.store.opts.Replicas > 1 {
		if p, ok := ReadPrefFrom(ctx); ok {
			pref = &p
		}
	}
	budget := budgetFrom(ctx)
	deadline, hasDeadline := time.Time{}, false
	if fallible {
		deadline, hasDeadline = ctx.Deadline()
	}
	// expired reports whether the query is out of time once the analytic
	// clock (shared budget + this task's serial backoff) is added to real
	// time, or ctx is done for another reason.
	expired := func(taskLocal time.Duration) bool {
		if !fallible {
			return false
		}
		if ctx.Err() != nil {
			return true
		}
		if !hasDeadline {
			return false
		}
		return !time.Now().Add(budget.SimElapsed() + taskLocal).Before(deadline)
	}

	// Region tasks run on the store's shared worker pool instead of fresh
	// per-query goroutines; the pool's width is the same Parallelism bound
	// the per-query semaphore used to enforce. One `run` closure is shared
	// by all of this query's tasks, and each task writes only into its own
	// scanTask slot, so queries never share result state.
	var followerReads atomic.Int64
	var wg sync.WaitGroup
	run := func(tk *scanTask) {
		t.runScanTask(tk, ranges, filter, limit, fallible, injector, pref, expired, &retried, &followerReads)
	}
	wg.Add(len(tasks))
	for i := range tasks {
		t.store.pool.submit(poolJob{scan: run, st: &tasks[i], wg: &wg})
	}
	wg.Wait()
	t.mu.RUnlock()

	// Account the simulated I/O makespan: parallel tasks overlap up to the
	// parallelism bound, so the cluster-side wall clock is at least the
	// largest single task and at least the total work divided by the
	// parallel width. The accounting is analytic (no sleeping) so that
	// measurements stay precise on any host.
	var total, maxCost time.Duration
	for i := range tasks {
		c := tasks[i].cost
		total += c
		if c > maxCost {
			maxCost = c
		}
	}
	makespan := total / time.Duration(par)
	if maxCost > makespan {
		makespan = maxCost
	}
	t.store.stats.SimIONanos.Add(int64(makespan))
	budget.Charge(makespan)

	status := ScanStatus{RetriedRPCs: retried.Load(), FollowerReads: followerReads.Load()}
	if status.FollowerReads > 0 {
		t.store.stats.FollowerReads.Add(status.FollowerReads)
	}
	totalOut := 0
	for i := range tasks {
		if tasks[i].failed {
			status.Partial = true
			status.FailedRegions++
			continue
		}
		totalOut += len(tasks[i].out)
	}
	if scanSpan != nil {
		t.recordScanSpan(scanSpan, tasks, totalOut, makespan, status)
	}
	var out []KV
	if totalOut > 0 {
		out = make([]KV, 0, totalOut)
		for i := range tasks {
			if !tasks[i].failed {
				out = append(out, tasks[i].out...)
			}
		}
	}
	if status.FailedRegions > 0 {
		t.store.stats.FailedRegions.Add(int64(status.FailedRegions))
	}
	if status.Partial {
		t.store.stats.PartialScans.Add(1)
	}
	if limit > 0 {
		// With a limit spanning several regions each task early-exits after
		// `limit` rows; sort the merged rows by key before truncating so the
		// kept subset is deterministic whatever the range/region geometry.
		if len(tasks) > 1 {
			sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
		}
		if len(out) > limit {
			out = out[:limit]
		}
	}
	var err error
	if cerr := ctx.Err(); fallible && cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
		err = cerr
	}
	return out, status, err
}

// maxRegionSpans caps the per-region children attached to one scan span, so
// a scan over hundreds of regions yields a readable trace: the hottest-path
// detail is in the first tasks and the remainder is aggregated into one
// "region:rest" child.
const maxRegionSpans = 32

// recordScanSpan finishes a traced scan's span: aggregate cost-model
// attribution on the scan span itself (rows_visited there is the paper's
// candidates metric for this scan) plus one child per region task, capped.
func (t *Table) recordScanSpan(span *obs.Span, tasks []scanTask, totalOut int, makespan time.Duration, status ScanStatus) {
	var rowsVisited int64
	for i := range tasks {
		rowsVisited += tasks[i].rows
	}
	span.Add("regions", int64(len(tasks)))
	span.Add("rows_visited", rowsVisited)
	span.Add("rows_passed", int64(totalOut))
	span.Add("rpcs", int64(len(tasks)-status.FailedRegions))
	span.Add("retried_rpcs", status.RetriedRPCs)
	span.Add("failed_regions", int64(status.FailedRegions))
	span.Add("follower_reads", status.FollowerReads)
	span.Add("sim_io_ns", int64(makespan))
	for i := range tasks {
		if i == maxRegionSpans {
			var restRows, restOut int64
			var restCost time.Duration
			var restAcct scanAcct
			for j := i; j < len(tasks); j++ {
				restRows += tasks[j].rows
				restOut += int64(len(tasks[j].out))
				restCost += tasks[j].cost
				restAcct.add(tasks[j].acct)
			}
			rest := span.Child(fmt.Sprintf("region:rest(%d)", len(tasks)-i), restCost)
			rest.Add("rows", restRows)
			rest.Add("rows_out", restOut)
			rest.Add("disk_bytes", restAcct.ScannedBytes)
			rest.Add("blocks_skipped", restAcct.BlocksSkipped)
			rest.Add("cache_hits", restAcct.CacheHits)
			rest.Add("cache_misses", restAcct.CacheMisses)
			break
		}
		tk := &tasks[i]
		c := span.Child(fmt.Sprintf("region:%d", tk.reg.id), tk.cost)
		c.Add("rows", tk.rows)
		c.Add("rows_out", int64(len(tk.out)))
		c.Add("node", int64(tk.node))
		c.Add("disk_bytes", tk.acct.ScannedBytes)
		c.Add("blocks_skipped", tk.acct.BlocksSkipped)
		c.Add("cache_hits", tk.acct.CacheHits)
		c.Add("cache_misses", tk.acct.CacheMisses)
		if tk.follower {
			c.Add("follower_read", 1)
		}
		if tk.failed {
			c.Add("failed", 1)
		}
	}
	span.End()
}

// RegionCount returns the number of regions (for tests and stats).
func (t *Table) RegionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.regions)
}

// ApproxSize returns the approximate byte size of the table.
func (t *Table) ApproxSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := 0
	for _, r := range t.regions {
		s += r.size()
	}
	return s
}

// CompactAll flushes memtables (sealed and live) and merges all runs of
// every region. Pending background flushes are absorbed with
// flusher-equivalent counting, so counter totals don't depend on how far
// the flusher got. Regions settle in parallel on the flusher's helper pool;
// per-region counting is unchanged by the fan-out, so totals stay
// deterministic.
func (t *Table) CompactAll() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tasks := make([]func(), len(t.regions))
	for i, r := range t.regions {
		r := r
		tasks[i] = func() { t.compactRegion(r) }
	}
	t.store.fl.runSubTasks(tasks)
}

// compactRegion is one region's share of a CompactAll: drain sealed and
// live memtables with flusher-equivalent counting, then major-compact the
// remaining runs into one.
func (t *Table) compactRegion(r *region) {
	st := &t.store.stats
	r.flushMu.Lock()
	r.mu.Lock()
	r.drainImmsLocked(st)
	if r.mem.size > 0 {
		job := r.jobs.Begin("flush", r.tname, r.id)
		run := r.flushMemLocked()
		st.Flushes.Add(1)
		st.BytesFlushed.Add(int64(run.rawBytes))
		job.AddBytesRead(int64(run.rawBytes))
		job.AddBytesWritten(int64(run.rawBytes))
		job.AddItems(int64(run.count))
		r.jobs.End(job)
		r.maintainRunsLocked(st)
	}
	if len(r.runs) > 1 {
		total, biggest := 0, 0
		for _, run := range r.runs {
			total += run.rawBytes
			if run.rawBytes > biggest {
				biggest = run.rawBytes
			}
		}
		job := r.jobs.Begin("compact", r.tname, r.id)
		nRuns := int64(len(r.runs))
		start := time.Now()
		r.install("compact", []*blockRun{mergeRunWindow(r.bcfg, r.runs, nil, nil, true)}, true, nil, nil)
		st.Compactions.Add(1)
		st.BytesCompacted.Add(int64(total))
		st.CompactStallNanos.Add(time.Since(start).Nanoseconds())
		job.AddBytesRead(int64(total))
		job.AddBytesWritten(int64(r.runs[0].rawBytes))
		job.AddItems(nRuns)
		job.AddStall(time.Since(start))
		r.jobs.End(job)
		// A major compaction briefly blocks client RPCs, as a region move
		// would — but only in proportion to the data actually migrated onto
		// the new run: the largest input is the stable base a tiered region
		// already had resident, so the window scales with the smaller tiers
		// folded into it rather than the whole region.
		t.store.injector.markUnavailableBytes(r, total-biggest, total)
	}
	r.mu.Unlock()
	r.flushMu.Unlock()
}
