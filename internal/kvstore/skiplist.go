// Package kvstore implements the ordered key-value store substrate TMan
// runs on — an embedded stand-in for an HBase-style cluster.
//
// A Store holds named Tables. Each Table is range-partitioned into regions;
// regions are assigned round-robin to simulated nodes and split
// automatically when they grow past a threshold. Each region is a small
// LSM tree: a skiplist memtable plus immutable sorted runs produced by
// flushes and merged by compaction.
//
// Scans accept push-down Filters that are evaluated inside the region scan
// loop — the store-side analogue of HBase coprocessor filters — and
// statistics (rows scanned, rows returned, seeks) are recorded so that
// benchmarks can report the candidate counts the TMan paper uses as its
// I/O-cost metric.
package kvstore

import (
	"bytes"
	"math/rand"
	"sync"
)

const (
	skiplistMaxLevel = 24
	skiplistP        = 0.25
)

type skipNode struct {
	key   []byte
	value []byte // nil value + tombstone=true marks a delete
	tomb  bool
	next  []*skipNode
}

// skiplist is a single-writer-locked ordered map from []byte to []byte with
// tombstone support. It is not internally synchronized; the owning region
// serializes access.
type skiplist struct {
	head  *skipNode
	level int
	size  int // entries (including tombstones)
	bytes int // approximate payload bytes
	rng   *rand.Rand

	// seg is the oldest log segment holding a row of this memtable (nil in
	// in-memory stores and on followers). The memtable pins it — and with it
	// every newer segment — until a run file covering its rows is named in
	// the manifest. Guarded by the owning region's lock.
	seg *walSegment
}

// pin records that a row logged in seg is about to land here. The caller
// still holds its own pin on seg, so moving down to an older, already
// sealed segment is safe.
func (s *skiplist) pin(seg *walSegment) {
	if seg == nil || (s.seg != nil && s.seg.seq <= seg.seq) {
		return
	}
	seg.pins.Add(1)
	s.seg.unpin()
	s.seg = seg
}

// unpin releases the memtable's hold on the log.
func (s *skiplist) unpin() {
	s.seg.unpin()
	s.seg = nil
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:  &skipNode{next: make([]*skipNode, skiplistMaxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomLevel() int {
	lvl := 1
	for lvl < skiplistMaxLevel && s.rng.Float64() < skiplistP {
		lvl++
	}
	return lvl
}

// findPredecessors fills prev with the rightmost node < key at every level.
func (s *skiplist) findPredecessors(key []byte, prev *[skiplistMaxLevel]*skipNode) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		prev[i] = x
	}
	return x.next[0]
}

// set inserts or replaces key. A nil value with tomb=true records a
// tombstone. Returns the change in approximate byte size.
func (s *skiplist) set(key, value []byte, tomb bool) int {
	var prev [skiplistMaxLevel]*skipNode
	next := s.findPredecessors(key, &prev)
	if next != nil && bytes.Equal(next.key, key) {
		delta := len(value) - len(next.value)
		next.value = value
		next.tomb = tomb
		s.bytes += delta
		return delta
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			prev[i] = s.head
		}
		s.level = lvl
	}
	n := &skipNode{key: key, value: value, tomb: tomb, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = prev[i].next[i]
		prev[i].next[i] = n
	}
	s.size++
	delta := len(key) + len(value) + memEntryOverhead
	s.bytes += delta
	return delta
}

// memEntryOverhead is the approximate per-entry bookkeeping cost added to
// key+value payload when charging memtable bytes and ingest volume.
const memEntryOverhead = 48

// batchInserter carries the per-level predecessor fingers of a sorted batch
// insertion. A batchInserter is bound to one skiplist: after the owning
// memtable is swapped the caller must reset it (ins = batchInserter{}) so
// the fingers are re-seeded against the fresh list.
type batchInserter struct {
	prev    [skiplistMaxLevel]*skipNode
	inited  bool
	lastKey []byte
}

// setSortedPuts inserts a key-ascending run of put rows (duplicates allowed;
// later rows win), reusing predecessor fingers across consecutive keys: each
// level's finger only ever moves forward, so inserting a dense sorted batch
// costs amortized O(1) comparisons per row instead of a full O(log n) search
// from the head. Insertion stops once s.bytes reaches limitBytes (<= 0 means
// no limit) so the owning region can seal the memtable mid-batch; at least
// one row is consumed per call. Returns the number of rows consumed.
func (s *skiplist) setSortedPuts(rows []KV, limitBytes int, ins *batchInserter) (consumed int) {
	if !ins.inited || (ins.lastKey != nil && len(rows) > 0 && bytes.Compare(rows[0].Key, ins.lastKey) < 0) {
		for i := range ins.prev {
			ins.prev[i] = s.head
		}
		ins.inited = true
	}
	// Node and next-pointer slabs, carved as rows insert. nextSlab holds the
	// expected total level count (mean 1/(1-p) per node) and grows by chunk
	// if the level draw runs hot.
	var nodeSlab []skipNode
	var nextSlab []*skipNode
	for ri := range rows {
		key, value := rows[ri].Key, rows[ri].Value
		// Advance the fingers: every prev[i] already satisfies key(prev[i]) <
		// key because the batch is ascending, so each level only scans
		// forward from where the previous row left it.
		for i := s.level - 1; i >= 0; i-- {
			x := ins.prev[i]
			for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
				x = x.next[i]
			}
			ins.prev[i] = x
		}
		ins.lastKey = key
		if n := ins.prev[0].next[0]; n != nil && bytes.Equal(n.key, key) {
			s.bytes += len(value) - len(n.value)
			n.value = value
			n.tomb = false
			consumed++
			if limitBytes > 0 && s.bytes >= limitBytes {
				break
			}
			continue
		}
		lvl := s.randomLevel()
		if lvl > s.level {
			for i := s.level; i < lvl; i++ {
				ins.prev[i] = s.head
			}
			s.level = lvl
		}
		if len(nodeSlab) == 0 {
			nodeSlab = make([]skipNode, len(rows)-ri)
		}
		n := &nodeSlab[0]
		nodeSlab = nodeSlab[1:]
		if len(nextSlab) < lvl {
			want := (len(rows) - ri) * 3 / 2
			if want < lvl {
				want = lvl
			}
			nextSlab = make([]*skipNode, want)
		}
		n.key, n.value, n.next = key, value, nextSlab[:lvl:lvl]
		nextSlab = nextSlab[lvl:]
		// Fingers deliberately stay on n's predecessors rather than moving
		// onto n: a later batch row with the same key must find n via
		// prev[0].next[0] to take the replacement branch.
		for i := 0; i < lvl; i++ {
			n.next[i] = ins.prev[i].next[i]
			ins.prev[i].next[i] = n
		}
		s.size++
		s.bytes += len(key) + len(value) + memEntryOverhead
		consumed++
		if limitBytes > 0 && s.bytes >= limitBytes {
			break
		}
	}
	return consumed
}

// get returns the value for key. found reports whether the key has an entry
// (possibly a tombstone, indicated by tomb).
func (s *skiplist) get(key []byte) (value []byte, tomb, found bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	n := x.next[0]
	if n != nil && bytes.Equal(n.key, key) {
		return n.value, n.tomb, true
	}
	return nil, false, false
}

// seek returns the first node with key >= target.
func (s *skiplist) seek(target []byte) *skipNode {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, target) < 0 {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// first returns the smallest node, or nil when empty.
func (s *skiplist) first() *skipNode { return s.head.next[0] }

// entry is a materialized key-value pair used by sorted runs and iterators.
type entry struct {
	key   []byte
	value []byte
	tomb  bool
}

// drain returns all entries in key order.
func (s *skiplist) drain() []entry {
	out := make([]entry, 0, s.size)
	for n := s.first(); n != nil; n = n.next[0] {
		out = append(out, entry{key: n.key, value: n.value, tomb: n.tomb})
	}
	return out
}

var skiplistSeed int64 = 1

var skiplistSeedMu sync.Mutex

func nextSkiplistSeed() int64 {
	skiplistSeedMu.Lock()
	defer skiplistSeedMu.Unlock()
	skiplistSeed++
	return skiplistSeed
}
