package kvstore

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/tman-db/tman/internal/obs"
)

// region is one contiguous key range of a table: [startKey, endKey), where a
// nil startKey means -inf and a nil endKey means +inf. Each region is a tiny
// LSM tree owned by a simulated node.
//
// Write pipeline: puts land in the live memtable (mem); when it crosses the
// flush threshold it is sealed onto the immutable list (imm) and the store's
// background flusher turns immutables into sorted runs and compacts when the
// run count crosses maxRuns — writers never block on flush or compaction.
//
// Lock order: table.mu → region.flushMu → region.mu. flushMu serializes
// every mutator of the run set (flusher, split, CompactAll), which lets
// compaction merge outside region.mu: the run set is frozen for the merge's
// duration, so the post-merge swap cannot lose a concurrent flush.
type region struct {
	mu       sync.RWMutex
	startKey []byte // inclusive; nil = -inf
	endKey   []byte // exclusive; nil = +inf
	mem      *skiplist
	imm      []*skiplist // sealed memtables awaiting flush, oldest first
	runs     []*blockRun // oldest first: flushes append, so the newest run is last
	id       int64       // store-unique id, stable for a deterministic load order

	// node is the owning node id. Atomic because failover re-homes the
	// region to the promoted follower's node while scans read it unlocked
	// for latency-scale accounting.
	node atomic.Int64

	// rep is the region's replication group (leader side); nil when the
	// store is unreplicated and always nil on follower regions, so applying
	// a shipped frame can never re-enter the ship path.
	rep *replGroup

	flushBytes int
	maxRuns    int
	cpol       compactPolicy // tiered compaction tuning; see compaction.go
	fl         *flusher      // store's background flusher; nil only in unit fixtures

	// bcfg is the owning table's block configuration (geometry, shared
	// cache, bloom density, fence extractor) every run of this region is
	// built with. Set at construction and never rewritten, so flushes read
	// it without a lock.
	bcfg *blockConfig

	// flushMu serializes run-set mutators; see the lock-order note above.
	flushMu sync.Mutex

	// Background-job observability (side-band only: never feeds the
	// deterministic Stats counters). jobs is the store's recorder — nil in
	// unit fixtures — and tname names the owning table in job records.
	jobs  *obs.JobRecorder
	tname string

	// per is the store's persister on the leader regions of a durable store
	// and nil everywhere else (in-memory stores, followers): the one check
	// that decides whether a run-set change touches the disk. See install.
	per *persister

	// Hotness accounting for the per-region hotness gauges: lifetime scan
	// task count and rows visited, charged unconditionally (two atomic adds
	// per region scan).
	hotScans atomic.Int64
	hotRows  atomic.Int64

	// writeBytes is the split-decision metric: the monotonic ingest volume
	// charged per mutation at put time (key+value+overhead), independent of
	// replacements, flush progress, and tombstone drops — so split points
	// are a pure function of the write sequence no matter how the
	// background flusher is scheduled. It is re-seeded from actual content
	// when a region splits (or a split aborts), keeping it an honest
	// approximation of region size.
	writeBytes atomic.Int64

	// Fault-model state: unavail counts down client RPC attempts that fail
	// with ErrRegionUnavailable (post-split/compaction window); faultSeq
	// numbers this region's RPC attempts so injected faults are a pure
	// function of (seed, region id, attempt).
	unavail  atomic.Int64
	faultSeq atomic.Int64
}

func newRegion(id int64, start, end []byte, node, flushBytes, maxRuns int, cpol compactPolicy, fl *flusher, bcfg *blockConfig) *region {
	r := &region{
		id:         id,
		startKey:   start,
		endKey:     end,
		mem:        newSkiplist(nextSkiplistSeed()),
		flushBytes: flushBytes,
		maxRuns:    maxRuns,
		cpol:       cpol,
		fl:         fl,
		bcfg:       bcfg,
	}
	r.node.Store(int64(node))
	return r
}

// nodeID returns the region's current serving node.
func (r *region) nodeID() int { return int(r.node.Load()) }

// takeUnavailable consumes one RPC from the unavailability window, returning
// true while the window is open.
func (r *region) takeUnavailable() bool {
	for {
		v := r.unavail.Load()
		if v <= 0 {
			return false
		}
		if r.unavail.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// containsKey reports whether key falls inside this region's range.
func (r *region) containsKey(key []byte) bool {
	if r.startKey != nil && bytes.Compare(key, r.startKey) < 0 {
		return false
	}
	if r.endKey != nil && bytes.Compare(key, r.endKey) >= 0 {
		return false
	}
	return true
}

// overlapsRange reports whether [start, end) overlaps the region. nil end
// means +inf; nil start means -inf.
func (r *region) overlapsRange(start, end []byte) bool {
	if end != nil && r.startKey != nil && bytes.Compare(end, r.startKey) <= 0 {
		return false
	}
	if r.endKey != nil && start != nil && bytes.Compare(start, r.endKey) >= 0 {
		return false
	}
	return true
}

// ingestCharge is the writeBytes cost of one mutation.
func ingestCharge(key, value []byte) int64 {
	return int64(len(key) + len(value) + memEntryOverhead)
}

// put inserts or replaces a row, sealing the memtable for background flush
// if it grew past the threshold. Returns the region's monotonic ingest
// volume so the table can decide whether to split. On a replicated region
// the local apply and the follower ship happen under one group critical
// section, so the write is acknowledged only once every live follower has
// it and all writers agree on the commit order.
//
// seg is the log segment the mutation was appended to (nil when nothing was
// logged): the memtable that takes the row pins it.
func (r *region) put(key, value []byte, seg *walSegment) (writeBytes int64) {
	if g := r.rep; g != nil {
		g.lock()
		wb := r.putLocal(key, value, seg)
		g.shipLocked(opPut, key, value, nil)
		g.unlock()
		return wb
	}
	return r.putLocal(key, value, seg)
}

func (r *region) putLocal(key, value []byte, seg *walSegment) (writeBytes int64) {
	r.mu.Lock()
	r.pinLocked(seg)
	r.mem.set(key, value, false)
	wb := r.writeBytes.Add(ingestCharge(key, value))
	sealed := false
	if r.mem.bytes >= r.flushBytes {
		sealed = r.sealLocked()
	}
	r.mu.Unlock()
	if sealed {
		r.fl.enqueue(r)
	}
	return wb
}

// putBatch applies a key-ascending run of put rows under a single lock
// acquisition, sealing (possibly repeatedly) as the memtable fills. Rows
// must all fall inside the region's range. Returns the post-apply ingest
// volume for the split check. Replicated regions ship the whole batch as a
// single op=3 group-commit frame, mirroring the WAL.
func (r *region) putBatch(rows []KV, seg *walSegment) (writeBytes int64) {
	if g := r.rep; g != nil {
		g.lock()
		wb := r.putBatchLocal(rows, seg)
		g.shipLocked(opBatch, nil, nil, rows)
		g.unlock()
		return wb
	}
	return r.putBatchLocal(rows, seg)
}

func (r *region) putBatchLocal(rows []KV, seg *walSegment) (writeBytes int64) {
	var ingest int64
	for i := range rows {
		ingest += ingestCharge(rows[i].Key, rows[i].Value)
	}
	sealed := false
	r.mu.Lock()
	var ins batchInserter
	for len(rows) > 0 {
		r.pinLocked(seg)
		n := r.mem.setSortedPuts(rows, r.flushBytes, &ins)
		rows = rows[n:]
		if r.mem.bytes >= r.flushBytes {
			if r.sealLocked() {
				sealed = true
			}
			ins = batchInserter{} // fingers pointed into the sealed memtable
		}
	}
	wb := r.writeBytes.Add(ingest)
	r.mu.Unlock()
	if sealed {
		r.fl.enqueue(r)
	}
	return wb
}

// delete writes a tombstone.
func (r *region) delete(key []byte, seg *walSegment) {
	if g := r.rep; g != nil {
		g.lock()
		r.deleteLocal(key, seg)
		g.shipLocked(opDelete, key, nil, nil)
		g.unlock()
		return
	}
	r.deleteLocal(key, seg)
}

func (r *region) deleteLocal(key []byte, seg *walSegment) {
	r.mu.Lock()
	r.pinLocked(seg)
	r.mem.set(key, nil, true)
	r.writeBytes.Add(ingestCharge(key, nil))
	sealed := false
	if r.mem.bytes >= r.flushBytes {
		sealed = r.sealLocked()
	}
	r.mu.Unlock()
	if sealed {
		r.fl.enqueue(r)
	}
}

// pinLocked makes the live memtable of a durable leader region hold the log
// from seg on, ahead of taking a row logged there; caller holds mu. A
// follower, an in-memory region or a region of a dropped table pins nothing.
func (r *region) pinLocked(seg *walSegment) {
	if r.per != nil {
		r.mem.pin(seg)
	}
}

// sealLocked moves a non-empty live memtable onto the immutable list; caller
// holds mu. The actual flush to a sorted run happens on the background
// flusher.
func (r *region) sealLocked() bool {
	if r.mem.size == 0 {
		return false
	}
	r.imm = append(r.imm, r.mem)
	r.mem = newSkiplist(nextSkiplistSeed())
	return true
}

// flushOldestImm converts the oldest immutable memtable into a sorted run,
// then drives the compaction policy to its fixpoint out of line. Caller
// holds flushMu (not mu). Returns false when no immutable was pending.
//
// The drain happens outside region.mu: the sealed memtable is never written
// again and concurrent readers only read it, while flushMu excludes every
// other run-set mutator.
func (r *region) flushOldestImm(stats *Stats) bool {
	r.mu.RLock()
	if len(r.imm) == 0 {
		r.mu.RUnlock()
		return false
	}
	m := r.imm[0]
	r.mu.RUnlock()

	job := r.jobs.Begin("flush", r.tname, r.id)
	entries := m.drain()
	run := newRunFromEntries(r.bcfg, entries)
	r.install("flush", withRun(r.runs, run), false, func() { r.imm = r.imm[1:] }, m)
	stats.Flushes.Add(1)
	stats.BytesFlushed.Add(int64(run.rawBytes))
	job.AddBytesRead(int64(run.rawBytes))
	job.AddBytesWritten(int64(run.rawBytes))
	job.AddItems(int64(len(entries)))
	r.jobs.End(job)
	r.maintainRuns(stats)
	return true
}

// drainImmsLocked converts every pending immutable memtable into a run with
// exactly the counting the background flusher would have performed (one
// Flush per conversion, then the compaction policy driven to its fixpoint,
// one Compactions per merge window and one SubCompactions per sub-range) —
// so counter totals stay a pure function of the write sequence whether the
// flusher or a foreground path (split, CompactAll) got there first. Caller
// holds flushMu and mu.
func (r *region) drainImmsLocked(stats *Stats) {
	for _, m := range r.imm {
		if m.size == 0 {
			continue
		}
		run := newRunFromEntries(r.bcfg, m.drain())
		r.install("flush", withRun(r.runs, run), true, nil, m)
		stats.Flushes.Add(1)
		stats.BytesFlushed.Add(int64(run.rawBytes))
		r.maintainRunsLocked(stats)
	}
	r.imm = nil
}

// flushMemLocked turns the live memtable into a run on top of the stack and
// starts an empty one, uncounted (callers that count do so themselves).
// Caller holds flushMu and mu.
func (r *region) flushMemLocked() *blockRun {
	m := r.mem
	run := newRunFromEntries(r.bcfg, m.drain())
	r.install("flush", withRun(r.runs, run), true, func() { r.mem = newSkiplist(nextSkiplistSeed()) }, m)
	return run
}

// withRun returns runs with run stacked on top, in a fresh slice: readers
// may still be walking the old one.
func withRun(runs []*blockRun, run *blockRun) []*blockRun {
	out := make([]*blockRun, len(runs)+1)
	copy(out, runs)
	out[len(runs)] = run
	return out
}

// get performs a point lookup, newest version wins.
func (r *region) get(key []byte) (value []byte, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, tomb, found := r.mem.get(key); found {
		if tomb {
			return nil, false
		}
		return v, true
	}
	for i := len(r.imm) - 1; i >= 0; i-- {
		if v, tomb, found := r.imm[i].get(key); found {
			if tomb {
				return nil, false
			}
			return v, true
		}
	}
	for i := len(r.runs) - 1; i >= 0; i-- {
		if v, tomb, found, _ := r.runs[i].get(key); found {
			if tomb {
				return nil, false
			}
			return v, true
		}
	}
	return nil, false
}

// scanAcct is one region scan's resource account: the bytes of rows visited
// (the simulated disk-read volume), the rows visited, and the fence/cache
// traffic behind them. It flows back per scan task so a traced query can
// attribute cost per region instead of only to the global counters.
type scanAcct struct {
	ScannedBytes  int64
	RowsScanned   int64
	BlocksSkipped int64 // fence-pruned blocks (run- and block-level)
	CacheHits     int64 // block fetches served by the block cache
	CacheMisses   int64 // block fetches that decoded (and charged) the run
}

func (a *scanAcct) add(b scanAcct) {
	a.ScannedBytes += b.ScannedBytes
	a.RowsScanned += b.RowsScanned
	a.BlocksSkipped += b.BlocksSkipped
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
}

// scan visits live rows with key in [start, end) ∩ region range in key
// order, applying the push-down filter and appending accepted rows to out.
// limit <= 0 means unlimited. Returns the extended slice, whether the limit
// was reached, and the scan's resource account.
//
// The scan streams a heap merge over the live memtable, the sealed
// immutables, and every run: each run's sparse index is binary-searched to
// the window once and streamed block-by-block through the cache, cursors
// advance in lockstep, and a limit stops the merge without visiting (or
// fetching) the rest of the window.
func (r *region) scan(start, end []byte, filter Filter, limit int, out []KV, stats *Stats, fenceBudget map[*blockRun]int64) (result []KV, hitLimit bool, acct scanAcct) {
	lo := maxKey(start, r.startKey)
	hi := minKey(end, r.endKey)

	r.hotScans.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if stats != nil {
		stats.Seeks.Add(1)
	}

	sc := getScanScratch(len(r.runs) + len(r.imm) + 1)
	defer sc.release()

	// Sources newest first: the live memtable (priority 0), sealed
	// immutables newest (last) to oldest, then runs newest (last) to
	// oldest. Priorities make the newest version win among duplicate keys.
	addMem := func(m *skiplist, pri int) {
		var n *skipNode
		if lo != nil {
			n = m.seek(lo)
		} else {
			n = m.first()
		}
		// A memtable cursor is self-referential; init it in its final slot.
		sc.cursors = append(sc.cursors, mergeCursor{})
		c := &sc.cursors[len(sc.cursors)-1]
		c.initMem(n, hi, pri)
		if !c.ok {
			sc.cursors = sc.cursors[:len(sc.cursors)-1]
		}
	}
	addMem(r.mem, 0)
	pri := 1
	for k := len(r.imm) - 1; k >= 0; k-- {
		addMem(r.imm[k], pri)
		pri++
	}
	// Fence pruning: a FenceFilter can classify whole blocks. AcceptAll is
	// always sound (rows still stream through the merge, only per-row
	// Accept calls are elided), but Skip removes a block's versions from
	// the merge — sound only when nothing older could resurface underneath.
	// That holds exactly for the oldest group-prefix of the run stack:
	// runs[0], plus the consecutive runs sharing its nonzero group id
	// (fragments of one partitioned compaction are key-disjoint, so they
	// cannot shadow each other). Every newer run caps at AcceptAll/Inspect.
	ff, _ := filter.(FenceFilter)
	skipPrefix := 0
	if ff != nil && len(r.runs) > 0 {
		skipPrefix = 1
		if g := r.runs[0].group; g != 0 {
			for skipPrefix < len(r.runs) && r.runs[skipPrefix].group == g {
				skipPrefix++
			}
		}
	}
	windowTotal := 0
	for k := len(r.runs) - 1; k >= 0; k-- {
		run := r.runs[k]
		// Cursors whose window proves empty are kept so their charged
		// probe misses still reach the scan's disk total.
		sc.cursors = append(sc.cursors, mergeCursor{})
		c := &sc.cursors[len(sc.cursors)-1]
		c.initBlock(run, lo, hi, pri, false, ff, k < skipPrefix, fenceBudget)
		if c.ok {
			pri++
			windowTotal += run.windowCount(c.nextBlk-1, c.lastBlk)
		}
	}

	// With no filter every deduped window entry is returned, so the run
	// windows bound the result size; grow out once instead of per-append.
	// (Duplicates and tombstones only make the bound generous.)
	if filter == nil && windowTotal > 0 {
		hint := windowTotal
		if limit > 0 && limit-len(out) < hint {
			hint = limit - len(out)
		}
		if need := len(out) + hint; need > cap(out) {
			grown := make([]KV, len(out), need)
			copy(grown, out)
			out = grown
		}
	}

	it := sc.start()
	for {
		e, pre, ok := it.next()
		if !ok {
			break
		}
		if e.tomb {
			continue
		}
		acct.RowsScanned++
		if stats != nil {
			stats.RowsScanned.Add(1)
		}
		// pre marks rows from fence-pre-accepted blocks: the filter already
		// proved it accepts every row the block can hold.
		if filter != nil && !pre && !filter.Accept(e.key, e.value) {
			continue
		}
		out = append(out, KV{Key: e.key, Value: e.value})
		if stats != nil {
			stats.RowsReturned.Add(1)
			stats.BytesReturned.Add(int64(len(e.value)))
		}
		if limit > 0 && len(out) >= limit {
			hitLimit = true
			break
		}
	}
	// Per-block charging: a run's scan cost is the encoded bytes of blocks
	// actually fetched (cache misses charge, cache hits do not — that is the
	// point of the tier), while memtable and immutable rows are charged the
	// raw bytes of each row their cursors visit.
	for i := range sc.cursors {
		c := &sc.cursors[i]
		acct.ScannedBytes += c.missBytes
		acct.BlocksSkipped += c.blocksSkipped
		acct.CacheHits += c.cacheHits
		acct.CacheMisses += c.cacheMisses
	}
	r.hotRows.Add(acct.RowsScanned)
	return out, hitLimit, acct
}

// size returns the approximate byte size of the region.
func (r *region) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sizeLocked()
}

func (r *region) sizeLocked() int {
	s := r.mem.bytes
	for _, m := range r.imm {
		s += m.bytes
	}
	for _, run := range r.runs {
		s += run.rawBytes
	}
	return s
}

// splitEntries returns the region's live entries, the median key to split
// at, and the single run they were merged into. Caller must hold the
// table-level write lock to prevent concurrent table access; flushMu
// excludes an in-flight background flush. Pending immutables are converted
// with flusher-equivalent counting (see drainImmsLocked); the live memtable
// is folded in and everything merged in memory only, uncounted, as the
// inline split compaction always was. Nothing is installed: a split that
// goes ahead drops the region, run set and memtable together; one that
// aborts calls adoptMerged. A nil median means nothing to split.
func (r *region) splitEntries(stats *Stats) (entries []entry, median []byte, merged *blockRun) {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainImmsLocked(stats)
	runs := r.runs
	if r.mem.size > 0 {
		runs = withRun(runs, newRunFromEntries(r.bcfg, r.mem.drain()))
	}
	if len(runs) == 0 {
		return nil, nil, nil
	}
	// Always re-merge: even a single run may carry tombstones from a plain
	// flush, and split children must start from live rows only (a region
	// owns its whole key range, so nothing older can resurface).
	merged = mergeRunWindow(r.bcfg, runs, nil, nil, true)
	es := merged.materialize()
	if len(es) < 2 {
		return nil, nil, merged
	}
	return es, es[len(es)/2].key, merged
}

// adoptMerged makes the run an aborted split merged the region into — run
// set and live memtable — its run set, so the merge is not redone at the
// next attempt. The table write lock the split still holds has kept writers
// out since splitEntries.
func (r *region) adoptMerged(merged *blockRun) {
	if merged == nil {
		return
	}
	r.flushMu.Lock()
	r.mu.Lock()
	mem := r.mem
	var fresh func()
	if mem.size > 0 {
		fresh = func() { r.mem = newSkiplist(nextSkiplistSeed()) }
	}
	r.install("compact", []*blockRun{merged}, true, fresh, mem)
	r.mu.Unlock()
	r.flushMu.Unlock()
}

// detach cuts a region that left its table loose from the disk: a
// straggling writer or flush of it stays in memory, and its memtables pin
// no log any more. Caller holds flushMu.
func (r *region) detach() {
	r.mu.Lock()
	r.per = nil
	r.mem.unpin()
	for _, m := range r.imm {
		m.unpin()
	}
	r.mu.Unlock()
}

// entriesCharge sums the ingest charge over a run of entries — used to
// re-seed writeBytes from actual content after a split.
func entriesCharge(es []entry) int64 {
	var c int64
	for i := range es {
		c += ingestCharge(es[i].key, es[i].value)
	}
	return c
}

func maxKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if bytes.Compare(a, b) >= 0 {
		return a
	}
	return b
}

func minKey(a, b []byte) []byte {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if bytes.Compare(a, b) <= 0 {
		return a
	}
	return b
}
