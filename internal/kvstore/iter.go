package kvstore

import (
	"bytes"
	"sort"
	"sync"
)

// K-way merge machinery shared by compaction (mergeRunWindow) and streaming
// region scans. Sources are ordered newest-to-oldest by priority; among
// entries with equal keys the lowest priority (newest) wins and the
// shadowed versions are skipped. A binary heap over the source cursors
// makes each emitted entry O(log K) instead of the O(K) per-entry linear
// minimum search.

// mergeCursor is one source of a k-way merge. Two backing modes share the
// struct: a block run streamed one decoded block at a time (br is set;
// entries holds the current block and loadBlock refills it), or a live
// skiplist walk bounded by hi when br is nil. cur always points at the
// current entry — into the block, or at the cursor-owned memEnt staging
// slot in skiplist mode — so comparisons and advances never copy entries
// around.
type mergeCursor struct {
	// Block mode: the source run, the current decoded block and position
	// in it, the next and last block to stream, and the exclusive upper
	// bound applied to the final block. missBytes accumulates this
	// cursor's charged scan bytes: encoded bytes fetched on cache misses
	// for block runs, raw bytes of visited rows for skiplist walks.
	// nocache bypasses the block cache (compaction).
	entries   []entry
	pos       int
	br        *blockRun
	nextBlk   int
	lastBlk   int
	blkHi     []byte
	nocache   bool
	missBytes int64
	// Per-cursor attribution mirrors of the global fence/cache counters, so
	// a scan can report its own skip and cache traffic (they sum into the
	// scan's scanAcct; the global Stats keep their own charges).
	blocksSkipped int64
	cacheHits     int64
	cacheMisses   int64
	// Fence pruning (block mode, scans only): ff consults per-block fences
	// before each fetch; skipOK gates Skip verdicts (region scans grant it
	// only to the oldest group-prefix of runs — see region.scan); runAccept
	// blanket-accepts every block (run-level AcceptAll); accepted marks the
	// currently loaded block as pre-accepted, so the merge can tell callers
	// to skip per-row Accept.
	ff        FenceFilter
	skipOK    bool
	runAccept bool
	accepted  bool
	// Skiplist mode.
	node   *skipNode
	hi     []byte
	memEnt entry // staging for the current skiplist node

	pri int // lower = newer; tie-break for duplicate keys
	cur *entry
	ok  bool
}

// initMem points the cursor at a skiplist walk starting at start (already
// sought to the scan's lower bound) and stopping at hi (exclusive; nil =
// +inf). The cursor becomes self-referential (cur aims at its own memEnt
// slot), so it must be initialized in its final storage, never copied.
func (c *mergeCursor) initMem(start *skipNode, hi []byte, pri int) {
	*c = mergeCursor{node: start, hi: hi, pri: pri}
	c.loadNode()
}

func (c *mergeCursor) loadNode() {
	n := c.node
	if n == nil || (c.hi != nil && bytes.Compare(n.key, c.hi) >= 0) {
		c.ok = false
		return
	}
	c.memEnt = entry{key: n.key, value: n.value, tomb: n.tomb}
	c.cur = &c.memEnt
	c.ok = true
	c.missBytes += int64(len(n.key) + len(n.value))
}

// initBlock points the cursor at the [lo, hi) window of a block run. Only
// the window's blocks are ever fetched, one at a time, so a merge holds at
// most one decoded block per source. Charged misses accumulate in
// missBytes even when the window turns out empty.
//
// A non-nil ff engages fence pruning: the window's share of the run's
// fence blob is charged (it is resident metadata the scan consulted), the
// run-level fence may skip or blanket-accept the whole window, and
// loadBlock classifies each remaining block before fetching it. skipOK
// gates Skip verdicts; see region.scan for the shadowing rule that sets
// it. A non-nil fenceBudget caps the cumulative fence charge per run
// across the windows of one scan task at the blob size — a multi-window
// scan consults the same resident blob repeatedly but never pays for more
// than one read of it.
func (c *mergeCursor) initBlock(br *blockRun, lo, hi []byte, pri int, nocache bool, ff FenceFilter, skipOK bool, fenceBudget map[*blockRun]int64) {
	*c = mergeCursor{br: br, blkHi: hi, pri: pri, nocache: nocache}
	if br.count == 0 {
		return
	}
	first := 0
	if lo != nil {
		if first = br.seekBlock(lo); first < 0 {
			first = 0
		}
	}
	last := len(br.blocks) - 1
	if hi != nil {
		// Blocks after the one that could contain hi start at keys >= hi.
		if last = br.seekBlock(hi); last < 0 {
			return // hi precedes the whole run: empty window
		}
	}
	if first > last {
		return
	}
	if ff != nil && br.fences != nil {
		c.ff, c.skipOK = ff, skipOK
		// Consulting fences reads resident metadata. Charge the window's
		// share of the blob — the fence entries this cursor actually
		// examines — not the whole blob: a scan that probes one run through
		// many key windows consults each fence once per window, not the
		// entire run's metadata per window.
		fenceBytes := int64(len(br.fenceBlob)) * int64(last-first+1) / int64(len(br.fences))
		if fenceBudget != nil {
			rem, seen := fenceBudget[br]
			if !seen {
				rem = int64(len(br.fenceBlob))
			}
			if fenceBytes > rem {
				fenceBytes = rem
			}
			fenceBudget[br] = rem - fenceBytes
		}
		c.missBytes += fenceBytes
		if st := br.cfg.stats; st != nil {
			st.FenceBytesRead.Add(fenceBytes)
		}
		if br.runFence.valid {
			switch v := ff.FenceVerdict(br.runFence.f); {
			case v == VerdictSkip && skipOK:
				c.blocksSkipped += int64(last - first + 1)
				if st := br.cfg.stats; st != nil {
					st.BlocksSkipped.Add(int64(last - first + 1))
				}
				return // whole window skipped: cursor stays exhausted
			case v == VerdictAcceptAll:
				c.runAccept = true
			}
		}
	}
	c.nextBlk, c.lastBlk = first, last
	c.loadBlock()
	if c.ok && lo != nil && c.nextBlk-1 == first {
		// Position within the first block; later blocks start past lo.
		es := c.entries
		i := sort.Search(len(es), func(k int) bool { return bytes.Compare(es[k].key, lo) >= 0 })
		if i >= len(es) {
			c.loadBlock()
		} else {
			c.pos = i
			c.cur = &es[i]
		}
	}
}

// loadBlock decodes the next block of the window into entries, trimming
// the final block at the hi bound, and skips empty tails. With a fence
// filter attached, each block is classified before its fetch: Skip means no
// cache lookup, no decode, no charge — the 32-byte fence already proved the
// block irrelevant.
func (c *mergeCursor) loadBlock() {
	for c.nextBlk <= c.lastBlk {
		i := c.nextBlk
		c.nextBlk++
		c.accepted = c.runAccept
		if c.ff != nil && !c.runAccept {
			switch c.br.verdict(c.ff, i, c.skipOK) {
			case VerdictSkip:
				c.blocksSkipped++
				if st := c.br.cfg.stats; st != nil {
					st.BlocksSkipped.Add(1)
				}
				continue
			case VerdictAcceptAll:
				c.accepted = true
			}
		}
		db, miss := c.br.fetch(i, c.nocache)
		c.missBytes += miss
		if miss > 0 {
			c.cacheMisses++
		} else {
			c.cacheHits++
		}
		es := db.entries
		if c.blkHi != nil && i == c.lastBlk {
			j := sort.Search(len(es), func(k int) bool { return bytes.Compare(es[k].key, c.blkHi) >= 0 })
			es = es[:j]
		}
		if len(es) == 0 {
			continue
		}
		if c.accepted {
			if st := c.br.cfg.stats; st != nil {
				st.BlocksAcceptedWhole.Add(1)
			}
		}
		c.entries = es
		c.pos = 0
		c.cur = &es[0]
		c.ok = true
		return
	}
	c.ok = false
}

// advance moves to the next entry; the cursor must be ok.
func (c *mergeCursor) advance() {
	if c.br != nil {
		c.pos++
		if c.pos < len(c.entries) {
			c.cur = &c.entries[c.pos]
			return
		}
		c.loadBlock()
		return
	}
	c.node = c.node.next[0]
	c.loadNode()
}

// mergeLess orders cursors by (current key, priority): the heap root is the
// smallest key, and among equal keys the newest version.
func mergeLess(a, b *mergeCursor) bool {
	cmp := bytes.Compare(a.cur.key, b.cur.key)
	if cmp != 0 {
		return cmp < 0
	}
	return a.pri < b.pri
}

// mergeIter streams the merged, deduplicated entry sequence of its cursors.
// Tombstones are emitted (newest version wins as for any key); callers
// decide whether to drop them.
//
// Three modes by live source count: exactly one source streams directly; up
// to linearMergeMax sources use a linear minimum search (fewer branches and
// no sift traffic beat O(log K) at small K); more use the binary heap.
type mergeIter struct {
	heap   []*mergeCursor // live cursors: min-heap, or unordered in linear mode
	single *mergeCursor   // fast path: exactly one live source, no heap ops
	linear bool
}

// linearMergeMax is the live-source count at or below which the linear
// minimum search replaces the heap.
const linearMergeMax = 4

// init takes ownership of cursors (filtered and reordered in place).
func (m *mergeIter) init(cursors []*mergeCursor) {
	live := cursors[:0]
	for _, c := range cursors {
		if c.ok {
			live = append(live, c)
		}
	}
	m.single = nil
	m.linear = false
	if len(live) == 1 {
		m.single = live[0]
		m.heap = nil
		return
	}
	m.heap = live
	if len(live) <= linearMergeMax {
		m.linear = true
		return
	}
	for i := len(live)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// next returns the next live-or-tombstone entry in key order, newest
// version winning among duplicates, or ok=false when exhausted. accepted
// reports that the winning entry came from a fence-pre-accepted block: the
// caller's push-down filter is guaranteed to accept it, so the per-row
// Accept call can be skipped. The flag is read from the winning cursor
// before it advances (advancing may cross into a differently-classified
// block).
func (m *mergeIter) next() (e entry, accepted, ok bool) {
	if c := m.single; c != nil {
		if !c.ok {
			return entry{}, false, false
		}
		e = *c.cur
		accepted = c.accepted
		c.advance()
		// Runs and memtables hold unique keys, but dedup anyway so the
		// merge contract is the same with one source as with many.
		for c.ok && bytes.Equal(c.cur.key, e.key) {
			c.advance()
		}
		return e, accepted, true
	}
	if len(m.heap) == 0 {
		return entry{}, false, false
	}
	if m.linear {
		return m.nextLinear()
	}
	e = *m.heap[0].cur
	accepted = m.heap[0].accepted
	m.advanceRoot()
	// Skip shadowed versions of the emitted key in older sources.
	for len(m.heap) > 0 && bytes.Equal(m.heap[0].cur.key, e.key) {
		m.advanceRoot()
	}
	return e, accepted, true
}

// nextLinear is next for the small-K mode: find the (key, priority) minimum
// by scanning the live cursors, then advance every cursor past that key.
func (m *mergeIter) nextLinear() (entry, bool, bool) {
	best := m.heap[0]
	for _, c := range m.heap[1:] {
		if mergeLess(c, best) {
			best = c
		}
	}
	e := *best.cur
	accepted := best.accepted
	for i := len(m.heap) - 1; i >= 0; i-- {
		c := m.heap[i]
		for c.ok && bytes.Equal(c.cur.key, e.key) {
			c.advance()
		}
		if !c.ok {
			last := len(m.heap) - 1
			m.heap[i] = m.heap[last]
			m.heap[last] = nil
			m.heap = m.heap[:last]
		}
	}
	return e, accepted, true
}

// advanceRoot advances the root cursor and restores the heap invariant,
// dropping the cursor when it is exhausted.
func (m *mergeIter) advanceRoot() {
	c := m.heap[0]
	c.advance()
	if !c.ok {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap[last] = nil
		m.heap = m.heap[:last]
		if len(m.heap) == 0 {
			return
		}
	}
	m.siftDown(0)
}

func (m *mergeIter) siftDown(i int) {
	h := m.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && mergeLess(h[r], h[l]) {
			small = r
		}
		if !mergeLess(h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// scanScratch pools the per-scan merge state (cursor storage, heap slice,
// iterator) so steady-state scans and compactions allocate nothing for
// their merge plumbing. Ownership rule: a scratch is private to one
// scan/merge call; it must be released before returning and nothing taken
// from it may be retained (cursors alias decoded blocks and skiplist nodes).
type scanScratch struct {
	cursors []mergeCursor
	ptrs    []*mergeCursor
	it      mergeIter
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// getScanScratch returns a scratch whose cursor storage can hold at least
// capHint cursors without reallocating (pointers into cursors stay valid).
func getScanScratch(capHint int) *scanScratch {
	sc := scanScratchPool.Get().(*scanScratch)
	if cap(sc.cursors) < capHint {
		sc.cursors = make([]mergeCursor, 0, capHint)
	}
	if cap(sc.ptrs) < capHint {
		sc.ptrs = make([]*mergeCursor, 0, capHint)
	}
	return sc
}

// start heapifies the cursors appended into sc.cursors and returns the
// ready iterator.
func (sc *scanScratch) start() *mergeIter {
	ptrs := sc.ptrs[:0]
	for i := range sc.cursors {
		ptrs = append(ptrs, &sc.cursors[i])
	}
	sc.ptrs = ptrs
	sc.it.init(ptrs)
	return &sc.it
}

// release drops all backing references and returns the scratch to the pool.
func (sc *scanScratch) release() {
	for i := range sc.cursors {
		sc.cursors[i] = mergeCursor{}
	}
	sc.cursors = sc.cursors[:0]
	for i := range sc.ptrs {
		sc.ptrs[i] = nil
	}
	sc.ptrs = sc.ptrs[:0]
	sc.it = mergeIter{}
	scanScratchPool.Put(sc)
}
