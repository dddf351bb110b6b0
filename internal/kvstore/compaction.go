package kvstore

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Tiered parallel compaction.
//
// Merging every run into one whenever the run count crosses maxRuns makes a
// region ingesting N bytes rewrite O(N²/flushBytes) bytes over its lifetime.
// The tiered policy groups runs into power-of-two size tiers and merges a
// bounded fan-in of same-tier neighbours, leaving larger tiers untouched:
// each byte is rewritten once per tier it climbs, O(log(size)) times total.
//
// Correctness invariants:
//
//   - Age order is the only shadowing mechanism (runs carry no sequence
//     numbers; newer runs simply sit later in region.runs), so a merge may
//     only combine an AGE-CONTIGUOUS window of runs. The merged output takes
//     the window's position, which preserves newest-shadows-oldest exactly.
//   - Tombstones drop only when the merge window includes runs[0]: a region
//     owns its whole key range, so nothing older than its oldest run can
//     resurface — but a tombstone merged anywhere above the bottom must keep
//     shadowing versions that still live below it.
//   - Large merges split by key range into sub-compactions. The fragments a
//     partitioned merge produces are key-disjoint and jointly equivalent to
//     the unpartitioned output, so they can all sit at the window's position
//     in any internal order. Fragments share a group id and the policy
//     treats consecutive same-group runs as ONE logical run, so a freshly
//     partitioned output is never immediately re-merged with itself.
//   - Counters stay a pure function of the write sequence: the policy
//     decides off run byte sizes (deterministic for a fixed workload), and
//     both the background path (maintainRuns, flushMu held) and the
//     foreground paths (maintainRunsLocked inside splits and CompactAll,
//     both locks held) charge one Compactions per merge window and one
//     SubCompactions per executed sub-range — whichever gets there first
//     produces identical totals, exactly as drainImmsLocked always promised
//     for Flushes.

// compactPolicy is the per-region compaction tuning, copied from Options at
// region construction so every run-set mutator sees one consistent policy.
type compactPolicy struct {
	fanIn     int // same-tier runs merged per compaction (>= 2)
	subRanges int // max key-range partitions of one merge (>= 1)
}

// subCompactMinBytes is the smallest merge input worth partitioning: below
// this the fixed cost of extra cursors and fragment runs outweighs the
// parallelism.
const subCompactMinBytes = 4 << 20

// runGroupSeq issues fragment group ids. Ids only need to be unique while
// any run carrying them is alive; equality over consecutive runs is the only
// thing the policy reads, so the ids themselves need not be deterministic.
var runGroupSeq atomic.Uint64

// logicalRun is the policy's unit: a maximal window of consecutive runs
// sharing a nonzero group id (the fragments of one partitioned merge), or a
// single ungrouped run. [start, end) are physical indices into region.runs.
type logicalRun struct {
	start, end int
	bytes      int
}

// logicalRuns coalesces the physical run list into policy units, oldest
// first.
func logicalRuns(runs []*blockRun) []logicalRun {
	ls := make([]logicalRun, 0, len(runs))
	for i := 0; i < len(runs); {
		j := i + 1
		b := runs[i].rawBytes
		if g := runs[i].group; g != 0 {
			for j < len(runs) && runs[j].group == g {
				b += runs[j].rawBytes
				j++
			}
		}
		ls = append(ls, logicalRun{start: i, end: j, bytes: b})
		i = j
	}
	return ls
}

// runTier buckets a logical run by power-of-two size: floor(log2(bytes))+1,
// with empty runs in tier 0.
func runTier(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return bits.Len(uint(bytes))
}

// pickCompaction chooses the next merge window over the physical run list,
// or ok=false when the region is at its policy fixpoint. Deterministic: a
// pure function of the run byte sizes and grouping.
//
// Preference order: (1) the smallest tier holding a streak of >= fanIn
// consecutive same-tier logical runs — merge the oldest fanIn of them;
// (2) when the logical run count still exceeds maxRuns, the adjacent pair
// with the smallest combined bytes (cheapest way to bound read
// amplification). Larger tiers are never touched just because small ones
// churn — that is the whole write-amplification win.
func pickCompaction(runs []*blockRun, pol compactPolicy, maxRuns int) (lo, hi int, ok bool) {
	ls := logicalRuns(runs)
	if len(ls) < 2 {
		return 0, 0, false
	}
	bestTier, bestAt := -1, -1
	for i := 0; i < len(ls); {
		t := runTier(ls[i].bytes)
		j := i + 1
		for j < len(ls) && runTier(ls[j].bytes) == t {
			j++
		}
		if j-i >= pol.fanIn && (bestTier < 0 || t < bestTier) {
			bestTier, bestAt = t, i
		}
		i = j
	}
	if bestAt >= 0 {
		return ls[bestAt].start, ls[bestAt+pol.fanIn-1].end, true
	}
	if len(ls) > maxRuns {
		bi := 0
		bb := ls[0].bytes + ls[1].bytes
		for k := 1; k+1 < len(ls); k++ {
			if b := ls[k].bytes + ls[k+1].bytes; b < bb {
				bi, bb = k, b
			}
		}
		return ls[bi].start, ls[bi+1].end, true
	}
	return 0, 0, false
}

// subRangeBounds picks up to subRanges-1 ascending split keys partitioning a
// merge window into independent key ranges, or nil to run unpartitioned.
// Split points come from the largest input run's sparse block index (free:
// the index is resident), so sub-ranges are roughly byte-balanced. A pure
// function of the window.
func subRangeBounds(group []*blockRun, pol compactPolicy, inputBytes int64) [][]byte {
	if pol.subRanges <= 1 || inputBytes < subCompactMinBytes {
		return nil
	}
	big := group[0]
	for _, run := range group[1:] {
		if run.rawBytes > big.rawBytes {
			big = run
		}
	}
	idx := big.index
	if len(idx) < 2 {
		return nil
	}
	var keys [][]byte
	for s := 1; s < pol.subRanges; s++ {
		i := s * len(idx) / pol.subRanges
		if i == 0 {
			continue
		}
		k := idx[i].firstKey
		if len(keys) > 0 && string(keys[len(keys)-1]) >= string(k) {
			continue // duplicate stride point
		}
		keys = append(keys, k)
	}
	return keys
}

// mergeRunWindow merges the [lo, hi) key window of oldest-first runs into
// one run — the unit of a key-range-partitioned sub-compaction (nil bounds
// merge everything: a full compaction). If dropTombs is false, tombstones
// are preserved in the output so they keep shadowing older runs below the
// merge window. The sources stream block-by-block through cursors into a
// new block builder — the decoded working set is one block per source,
// never the whole window — and the merge bypasses the block cache so
// compactions don't evict the read path's working set.
func mergeRunWindow(bcfg *blockConfig, runs []*blockRun, lo, hi []byte, dropTombs bool) *blockRun {
	sc := getScanScratch(len(runs))
	defer sc.release()
	for i := len(runs) - 1; i >= 0; i-- { // newest first = lowest priority
		sc.cursors = append(sc.cursors, mergeCursor{})
		// Compaction merges carry no filter: every surviving row must be
		// rewritten, so no fence pruning applies (fences for the output
		// run are recomputed by the builder below).
		sc.cursors[len(sc.cursors)-1].initBlock(runs[i], lo, hi, len(runs)-1-i, true, nil, false, nil)
	}
	it := sc.start()
	b := newBlockBuilder(bcfg)
	for {
		e, _, ok := it.next()
		if !ok {
			break
		}
		if e.tomb && dropTombs {
			continue
		}
		b.add(e.key, e.value, e.tomb)
	}
	return b.finish()
}

// compactGroup merges the age-contiguous window runs[lo:hi) into its
// replacement fragments (possibly empty when every surviving entry was a
// dropped tombstone). Tombstones drop only when the window includes runs[0].
// Large windows are partitioned by key range; with parallel set, sub-range
// merges run on the flusher's helper pool (the caller participates, so
// progress never depends on idle workers), otherwise they run inline —
// either way the fragments and every charged counter are identical.
//
// The caller must hold flushMu (freezing the run set); region.mu is not
// required: sub-merges read only the immutable snapshot.
func (r *region) compactGroup(runs []*blockRun, lo, hi int, stats *Stats, parallel bool) []*blockRun {
	group := runs[lo:hi]
	dropTombs := lo == 0
	var input int64
	for _, run := range group {
		input += int64(run.rawBytes)
	}
	// Side-band job record: wall-clock only, never feeds the deterministic
	// counters below, so charging stays a pure function of the write
	// sequence regardless of which path (background or foreground) merged.
	job := r.jobs.Begin("compact", r.tname, r.id)
	start := time.Now()
	bounds := subRangeBounds(group, r.cpol, input)

	var frags []*blockRun
	if len(bounds) == 0 {
		if out := mergeRunWindow(r.bcfg, group, nil, nil, dropTombs); out.count > 0 {
			frags = []*blockRun{out}
		}
	} else {
		outs := make([]*blockRun, len(bounds)+1)
		tasks := make([]func(), len(outs))
		for s := range outs {
			s := s
			var blo, bhi []byte
			if s > 0 {
				blo = bounds[s-1]
			}
			if s < len(bounds) {
				bhi = bounds[s]
			}
			tasks[s] = func() {
				outs[s] = mergeRunWindow(r.bcfg, group, blo, bhi, dropTombs)
			}
		}
		if parallel && r.fl != nil {
			r.fl.runSubTasks(tasks)
		} else {
			for _, task := range tasks {
				task()
			}
		}
		for _, out := range outs {
			if out.count > 0 {
				frags = append(frags, out)
			}
		}
		if len(frags) > 1 {
			gid := runGroupSeq.Add(1)
			for _, f := range frags {
				f.group = gid
			}
		}
		stats.SubCompactions.Add(int64(len(tasks)))
	}
	stats.Compactions.Add(1)
	stats.BytesCompacted.Add(input)
	stats.CompactStallNanos.Add(time.Since(start).Nanoseconds())
	var output int64
	for _, f := range frags {
		output += int64(f.rawBytes)
	}
	job.AddBytesRead(input)
	job.AddBytesWritten(output)
	job.AddItems(int64(hi - lo))
	job.AddStall(time.Since(start))
	r.jobs.End(job)
	return frags
}

// spliceRuns replaces runs[lo:hi) with frags in a fresh slice.
func spliceRuns(runs []*blockRun, lo, hi int, frags []*blockRun) []*blockRun {
	out := make([]*blockRun, 0, lo+len(frags)+len(runs)-hi)
	out = append(out, runs[:lo]...)
	out = append(out, frags...)
	out = append(out, runs[hi:]...)
	return out
}

// maintainRuns drives the policy to its fixpoint after a background flush.
// Caller holds flushMu (not mu): the run set is frozen for every merge, so
// each swap under a brief mu critical section is exact, and readers keep
// scanning the pre-merge runs until the atomic splice.
func (r *region) maintainRuns(stats *Stats) {
	for {
		r.mu.RLock()
		snap := append([]*blockRun(nil), r.runs...)
		r.mu.RUnlock()
		lo, hi, ok := pickCompaction(snap, r.cpol, r.maxRuns)
		if !ok {
			return
		}
		frags := r.compactGroup(snap, lo, hi, stats, true)
		r.install("compact", spliceRuns(snap, lo, hi, frags), false, nil, nil)
	}
}

// maintainRunsLocked is maintainRuns for callers already holding both
// flushMu and mu (splits, CompactAll): merges run inline on the caller, with
// counting identical to the background path.
func (r *region) maintainRunsLocked(stats *Stats) {
	for {
		lo, hi, ok := pickCompaction(r.runs, r.cpol, r.maxRuns)
		if !ok {
			return
		}
		frags := r.compactGroup(r.runs, lo, hi, stats, false)
		r.install("compact", spliceRuns(r.runs, lo, hi, frags), true, nil, nil)
	}
}
