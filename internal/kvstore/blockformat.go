package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"

	"github.com/tman-db/tman/internal/cache"
	"github.com/tman-db/tman/internal/compress"
)

// Block-based run format. A run's entries are laid out in ~blockBytes
// encoded blocks; the run keeps only the encoded blocks, a sparse index
// (first key + entry count per block), and a bloom filter resident —
// decoded rows exist transiently, in the store-wide block cache.
//
// Block layout (all multi-byte integers little-endian / uvarint):
//
//	u32     crc32c over everything after it
//	u8      format version (blockFormatV1)
//	uvarint entry count
//	uvarint raw bytes (sum of full key + value lengths)
//	uvarint restart count
//	uvarint simple8b word count
//	words   restart-offset deltas, simple8b packed, 8 bytes each
//	stream  entries
//
// Entry stream: every blockRestartInterval-th entry is a restart point
// storing its full key; entries in between store only the suffix after the
// longest common prefix with the previous key. One entry is
//
//	uvarint shared | uvarint unshared | uvarint vtag | key suffix | value
//
// where vtag packs the value length and the tombstone flag (vlen<<1 | tomb).
// Restart offsets (byte positions into the stream) are delta-encoded and
// simple8b-packed in the header, reusing internal/compress end to end.

const (
	blockFormatV1        = 1
	blockRestartInterval = 16
	// blockNoBits sizes the block-number field of a cache key; runs beyond
	// 2^24 blocks (unreachable at sane block sizes) bypass the cache.
	blockNoBits = 24

	// decodedEntryOverhead approximates the in-memory cost of one decoded
	// entry beyond its key/value bytes (two slice headers + flag), used to
	// charge the block cache honestly.
	decodedEntryOverhead = 56
)

// ErrBlockCorrupt is returned by decodeBlock for any structurally invalid
// or checksum-failing block.
var ErrBlockCorrupt = errors.New("kvstore: corrupt block")

// blockConfig is the store-wide block-format configuration shared by every
// region: geometry, filter density, the shared cache tier, and the stats
// sink for block/bloom counters. A table opened with a fence extractor
// derives a copy with fence set (see newTable), so the type must stay
// copyable — run ids come from the process-wide blockRunSeq.
type blockConfig struct {
	blockBytes int
	bloomBits  int
	cache      *cache.BlockCache // nil: decode on every read, charge every read
	stats      *Stats
	fence      FenceExtractor // nil: runs are built without fences
}

// blockRunSeq issues process-unique run ids — the high bits of block cache
// keys. Ids are never reused, so cached blocks of dropped runs simply age
// out without an invalidation protocol.
var blockRunSeq atomic.Uint64

// blockIndexEntry is one sparse-index row: the first key of a block and how
// many entries it holds (the count makes scan capacity hints cheap).
type blockIndexEntry struct {
	firstKey []byte
	count    int
}

// blockRun is an immutable, key-ordered run produced by a memtable flush or
// a compaction: encoded blocks plus the resident metadata needed to route
// reads. Newer runs shadow older ones.
type blockRun struct {
	cfg      *blockConfig
	id       uint64
	blocks   [][]byte
	index    []blockIndexEntry
	filter   *bloom
	count    int // total entries
	rawBytes int // decoded key+value bytes — what region sizing, splits and the tier policy read
	encBytes int // encoded block bytes — the run's "disk" footprint

	// group links the key-disjoint fragments of one partitioned compaction:
	// consecutive runs sharing a nonzero group id are one logical run to the
	// tier policy (see compaction.go). 0 = ungrouped.
	group uint64

	// Block fences (nil when the run was built without a fence extractor or
	// the blob failed validation — both degrade every block to Inspect).
	// fenceBlob is the checksummed serialized form; its length is what a
	// fence-consulting cursor is charged. runFence aggregates the per-block
	// fences (valid only when every block is fenced), enabling run-level
	// short-circuits.
	fenceBlob []byte
	fences    []blockFence
	runFence  blockFence

	// file is the number of the run file holding this run, 0 while it has
	// none (in-memory stores, follower-built runs, a run not yet installed).
	// Not part of the immutable run: written by the install step of the
	// leader region naming it, under that region's flushMu.
	file      uint64
	fileBytes int64
}

// decodedBlock is a decompressed block as it lives in the cache: entries
// share one backing arena so a cached block is two allocations.
type decodedBlock struct {
	entries []entry
	charge  int64
}

// ------------------------------------------------------------- builder ---

// blockBuilder streams key-ordered entries into encoded blocks in a single
// pass, tracking raw and encoded sizes as it goes (no post-hoc O(N)
// recount) and collecting bloom hashes for the finished run's filter.
type blockBuilder struct {
	cfg    *blockConfig
	blocks [][]byte
	index  []blockIndexEntry
	hashes []uint64

	buf      []byte // current block's entry stream
	restarts []uint64
	firstKey []byte
	lastKey  []byte
	blkCount int

	// Per-block fence accumulation (cfg.fence != nil). A tombstone or an
	// extractor failure poisons the open block: it gets an invalid fence and
	// will always be inspected.
	fences    []blockFence
	blkFence  Fence
	blkFenced bool // open block has at least one summarized row
	blkPoison bool

	count     int
	rawBytes  int
	sealedRaw int // rawBytes at the last seal; open-block raw = rawBytes - sealedRaw
	encBytes  int
}

func newBlockBuilder(cfg *blockConfig) *blockBuilder {
	return &blockBuilder{cfg: cfg}
}

// newRunFromEntries encodes key-ascending entries into a run.
func newRunFromEntries(cfg *blockConfig, entries []entry) *blockRun {
	b := newBlockBuilder(cfg)
	for i := range entries {
		b.add(entries[i].key, entries[i].value, entries[i].tomb)
	}
	return b.finish()
}

// add appends one entry; keys must arrive in strictly ascending order.
func (b *blockBuilder) add(key, value []byte, tomb bool) {
	if b.blkCount > 0 && len(b.buf) >= b.cfg.blockBytes {
		b.seal()
	}
	shared := 0
	if b.blkCount%blockRestartInterval == 0 {
		b.restarts = append(b.restarts, uint64(len(b.buf)))
	} else {
		shared = commonPrefixLen(b.lastKey, key)
	}
	vtag := uint64(len(value)) << 1
	if tomb {
		vtag |= 1
	}
	b.buf = compress.AppendUvarint(b.buf, uint64(shared))
	b.buf = compress.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = compress.AppendUvarint(b.buf, vtag)
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	if b.cfg.fence != nil && !b.blkPoison {
		if tomb {
			b.blkPoison = true
		} else if f, ok := b.cfg.fence(key, value); !ok {
			b.blkPoison = true
		} else if !b.blkFenced {
			b.blkFence, b.blkFenced = f, true
		} else {
			b.blkFence.union(f)
		}
	}
	if b.blkCount == 0 {
		b.firstKey = append(b.firstKey[:0], key...)
	}
	b.lastKey = append(b.lastKey[:0], key...)
	if b.cfg.bloomBits > 0 {
		b.hashes = append(b.hashes, bloomHash(key))
	}
	b.blkCount++
	b.count++
	b.rawBytes += len(key) + len(value)
}

// seal encodes the current block (header + checksum) and starts a new one.
func (b *blockBuilder) seal() {
	if b.blkCount == 0 {
		return
	}
	deltas := make([]uint64, len(b.restarts))
	prev := uint64(0)
	for i, off := range b.restarts {
		deltas[i] = off - prev
		prev = off
	}
	words, err := compress.Simple8bEncode(deltas)
	if err != nil {
		// Deltas are bounded by the block size (< 2^60); unreachable.
		panic("kvstore: block restart offsets overflow simple8b: " + err.Error())
	}
	hdr := make([]byte, 4, 4+1+4*binary.MaxVarintLen64+len(words)*8+len(b.buf))
	hdr = append(hdr, blockFormatV1)
	hdr = compress.AppendUvarint(hdr, uint64(b.blkCount))
	hdr = compress.AppendUvarint(hdr, uint64(b.blockRawBytes()))
	hdr = compress.AppendUvarint(hdr, uint64(len(b.restarts)))
	hdr = compress.AppendUvarint(hdr, uint64(len(words)))
	for _, w := range words {
		hdr = binary.LittleEndian.AppendUint64(hdr, w)
	}
	enc := append(hdr, b.buf...)
	binary.LittleEndian.PutUint32(enc[:4], crc32.Checksum(enc[4:], crcTable))

	b.blocks = append(b.blocks, enc)
	b.index = append(b.index, blockIndexEntry{
		firstKey: append([]byte(nil), b.firstKey...),
		count:    b.blkCount,
	})
	b.encBytes += len(enc)
	if b.cfg.fence != nil {
		b.fences = append(b.fences, blockFence{f: b.blkFence, valid: b.blkFenced && !b.blkPoison})
	}

	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.firstKey = b.firstKey[:0]
	b.lastKey = b.lastKey[:0]
	b.blkCount = 0
	b.blkFence = Fence{}
	b.blkFenced, b.blkPoison = false, false
	b.sealedRaw = b.rawBytes
}

// blockRawBytes is the raw key+value byte count of the open block.
func (b *blockBuilder) blockRawBytes() int { return b.rawBytes - b.sealedRaw }

// finish seals the open block and assembles the run.
func (b *blockBuilder) finish() *blockRun {
	b.seal()
	br := &blockRun{
		cfg:      b.cfg,
		id:       blockRunSeq.Add(1),
		blocks:   b.blocks,
		index:    b.index,
		filter:   newBloom(b.hashes, b.cfg.bloomBits),
		count:    b.count,
		rawBytes: b.rawBytes,
		encBytes: b.encBytes,
	}
	if b.cfg.fence != nil && len(b.blocks) > 0 {
		// Install through the validating decode path — the same route a
		// tampered blob takes — so an encoder bug can never produce fences
		// the decoder would reject.
		br.setFences(encodeFences(b.fences))
	}
	return br
}

// setFences installs a fence blob after full validation. A blob that fails
// to parse, or disagrees with the block count, is discarded: the run keeps
// nil fences and every block verdicts Inspect (fail-safe, never Skip).
func (br *blockRun) setFences(blob []byte) {
	fences, err := decodeFences(blob)
	if err != nil || len(fences) != len(br.blocks) {
		return
	}
	br.fenceBlob = blob
	br.fences = fences
	rf := blockFence{valid: len(fences) > 0}
	for i := range fences {
		if !fences[i].valid {
			rf.valid = false
			break
		}
		if i == 0 {
			rf.f = fences[i].f
		} else {
			rf.f.union(fences[i].f)
		}
	}
	br.runFence = rf
}

// verdict classifies block i for ff. skipOK gates Skip: when the caller
// cannot prove shadowing safety (the run is not in the region's oldest
// group-prefix) Skip downgrades to Inspect. Unfenced blocks always Inspect.
func (br *blockRun) verdict(ff FenceFilter, i int, skipOK bool) BlockVerdict {
	if i >= len(br.fences) || !br.fences[i].valid {
		return VerdictInspect
	}
	v := ff.FenceVerdict(br.fences[i].f)
	if v == VerdictSkip && !skipOK {
		return VerdictInspect
	}
	return v
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// ------------------------------------------------------------- decoder ---

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBlockCorrupt, fmt.Sprintf(format, args...))
}

// decodeBlock validates and decompresses one encoded block. The returned
// entries are backed by a single fresh arena (two allocations per block)
// and alias nothing in enc. Every structural violation — bad checksum,
// truncation at any offset, restart/entry mismatches — returns
// ErrBlockCorrupt.
func decodeBlock(enc []byte) ([]entry, int, error) {
	if len(enc) < 5 {
		return nil, 0, corrupt("short block: %d bytes", len(enc))
	}
	if got, want := crc32.Checksum(enc[4:], crcTable), binary.LittleEndian.Uint32(enc[:4]); got != want {
		return nil, 0, corrupt("checksum mismatch: got %08x want %08x", got, want)
	}
	if enc[4] != blockFormatV1 {
		return nil, 0, corrupt("unknown format %d", enc[4])
	}
	p := enc[5:]
	uv := func(what string) (uint64, error) {
		v, n := compress.Uvarint(p)
		if n <= 0 {
			return 0, corrupt("truncated %s", what)
		}
		p = p[n:]
		return v, nil
	}
	count64, err := uv("entry count")
	if err != nil {
		return nil, 0, err
	}
	raw64, err := uv("raw byte count")
	if err != nil {
		return nil, 0, err
	}
	nRestarts64, err := uv("restart count")
	if err != nil {
		return nil, 0, err
	}
	nWords64, err := uv("word count")
	if err != nil {
		return nil, 0, err
	}
	count, rawBytes := int(count64), int(raw64)
	nRestarts, nWords := int(nRestarts64), int(nWords64)
	// Each entry costs at least 3 stream bytes and each restart covers at
	// least one entry, so the remaining payload bounds both counts.
	if count <= 0 || count > len(enc) {
		return nil, 0, corrupt("implausible entry count %d", count)
	}
	if rawBytes < 0 || rawBytes > len(enc)*64 {
		return nil, 0, corrupt("implausible raw size %d", rawBytes)
	}
	wantRestarts := (count + blockRestartInterval - 1) / blockRestartInterval
	if nRestarts != wantRestarts {
		return nil, 0, corrupt("restart count %d, want %d for %d entries", nRestarts, wantRestarts, count)
	}
	if nWords < 0 || nWords > len(p)/8 {
		return nil, 0, corrupt("word count %d exceeds payload", nWords)
	}
	words := make([]uint64, nWords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	p = p[nWords*8:]
	deltas := compress.Simple8bDecode(make([]uint64, 0, nRestarts), words)
	if len(deltas) != nRestarts {
		return nil, 0, corrupt("restart array decodes to %d offsets, want %d", len(deltas), nRestarts)
	}
	restarts := make([]uint64, nRestarts)
	var off uint64
	for i, d := range deltas {
		off += d
		if off > uint64(len(p)) {
			return nil, 0, corrupt("restart offset %d beyond stream", off)
		}
		restarts[i] = off
	}

	arena := make([]byte, 0, rawBytes)
	entries := make([]entry, 0, count)
	var prevKey []byte
	stream := p
	pos := 0
	for i := 0; i < count; i++ {
		if i%blockRestartInterval == 0 {
			if want := int(restarts[i/blockRestartInterval]); pos != want {
				return nil, 0, corrupt("entry %d at offset %d, restart table says %d", i, pos, want)
			}
		}
		q := stream[pos:]
		shared, n1 := compress.Uvarint(q)
		if n1 <= 0 {
			return nil, 0, corrupt("truncated shared length at entry %d", i)
		}
		q = q[n1:]
		unshared, n2 := compress.Uvarint(q)
		if n2 <= 0 {
			return nil, 0, corrupt("truncated unshared length at entry %d", i)
		}
		q = q[n2:]
		vtag, n3 := compress.Uvarint(q)
		if n3 <= 0 {
			return nil, 0, corrupt("truncated value tag at entry %d", i)
		}
		q = q[n3:]
		vlen := int(vtag >> 1)
		tomb := vtag&1 != 0
		if shared > uint64(len(prevKey)) {
			return nil, 0, corrupt("entry %d shares %d bytes of a %d-byte predecessor", i, shared, len(prevKey))
		}
		if i%blockRestartInterval == 0 && shared != 0 {
			return nil, 0, corrupt("restart entry %d has shared prefix %d", i, shared)
		}
		need := int(unshared) + vlen
		if need < 0 || need > len(q) {
			return nil, 0, corrupt("entry %d body overruns stream", i)
		}
		keyStart := len(arena)
		arena = append(arena, prevKey[:shared]...)
		arena = append(arena, q[:unshared]...)
		key := arena[keyStart:len(arena):len(arena)]
		valStart := len(arena)
		arena = append(arena, q[unshared:need]...)
		value := arena[valStart:len(arena):len(arena)]
		if len(value) == 0 {
			value = nil
		}
		if len(entries) > 0 && bytes.Compare(entries[len(entries)-1].key, key) >= 0 {
			return nil, 0, corrupt("entry %d key out of order", i)
		}
		entries = append(entries, entry{key: key, value: value, tomb: tomb})
		prevKey = key
		pos += n1 + n2 + n3 + need
	}
	if pos != len(stream) {
		return nil, 0, corrupt("%d trailing bytes after last entry", len(stream)-pos)
	}
	if len(arena) != rawBytes {
		return nil, 0, corrupt("decoded %d raw bytes, header says %d", len(arena), rawBytes)
	}
	return entries, rawBytes, nil
}

// mustDecode decodes a block this process built. Blocks live in memory and
// are immutable after seal, so a decode failure here is a programming bug,
// not an I/O condition — fail loudly.
func mustDecode(enc []byte) *decodedBlock {
	entries, rawBytes, err := decodeBlock(enc)
	if err != nil {
		panic(err)
	}
	return &decodedBlock{
		entries: entries,
		charge:  int64(rawBytes + len(entries)*decodedEntryOverhead),
	}
}

// ----------------------------------------------------------- run reads ---

// seekBlock returns the index of the last block whose first key is <= key:
// the only block that can contain key. Returns -1 when key precedes the
// whole run.
func (br *blockRun) seekBlock(key []byte) int {
	return sort.Search(len(br.index), func(i int) bool {
		return bytes.Compare(br.index[i].firstKey, key) > 0
	}) - 1
}

// fetch returns block i decoded, via the shared cache unless nocache is
// set (compaction bypasses the cache so background merges neither pollute
// it nor skew hit rates). missBytes is the encoded bytes physically read:
// the cost-model disk charge, zero on a cache hit or a shared in-flight
// load.
func (br *blockRun) fetch(i int, nocache bool) (*decodedBlock, int64) {
	enc := br.blocks[i]
	st := br.cfg.stats
	c := br.cfg.cache
	if nocache {
		return mustDecode(enc), int64(len(enc))
	}
	if c == nil || i >= 1<<blockNoBits {
		if st != nil {
			st.BlockCacheMisses.Add(1)
			st.BlockReadBytes.Add(int64(len(enc)))
		}
		return mustDecode(enc), int64(len(enc))
	}
	key := br.id<<blockNoBits | uint64(i)
	v, kind, _ := c.GetOrLoad(key, func() (any, int64, error) {
		db := mustDecode(enc)
		return db, db.charge, nil
	})
	db := v.(*decodedBlock)
	switch kind {
	case cache.CacheLoad:
		if st != nil {
			st.BlockCacheMisses.Add(1)
			st.BlockReadBytes.Add(int64(len(enc)))
		}
		return db, int64(len(enc))
	default: // hit, or joined another caller's load: no new physical read
		if st != nil {
			st.BlockCacheHits.Add(1)
		}
		return db, 0
	}
}

// get is the bloom-gated point lookup.
func (br *blockRun) get(key []byte) (value []byte, tomb, found bool, missBytes int64) {
	st := br.cfg.stats
	if br.filter != nil {
		if st != nil {
			st.BloomChecks.Add(1)
		}
		if !br.filter.mayContain(bloomHash(key)) {
			if st != nil {
				st.BloomNegatives.Add(1)
			}
			return nil, false, false, 0
		}
	}
	i := br.seekBlock(key)
	if i < 0 {
		if st != nil && br.filter != nil {
			st.BloomFalsePositives.Add(1)
		}
		return nil, false, false, 0
	}
	db, miss := br.fetch(i, false)
	es := db.entries
	j := sort.Search(len(es), func(k int) bool { return bytes.Compare(es[k].key, key) >= 0 })
	if j < len(es) && bytes.Equal(es[j].key, key) {
		return es[j].value, es[j].tomb, true, miss
	}
	if st != nil && br.filter != nil {
		st.BloomFalsePositives.Add(1)
	}
	return nil, false, false, miss
}

// materialize decodes the whole run into one entry slice — the split path
// needs the full sorted content to cut at the median. Bypasses the cache:
// a split reads every block exactly once.
func (br *blockRun) materialize() []entry {
	out := make([]entry, 0, br.count)
	for i := range br.blocks {
		db, _ := br.fetch(i, true)
		out = append(out, db.entries...)
	}
	return out
}

// windowCount upper-bounds the entries in blocks [lo, hi] — the scan
// capacity hint.
func (br *blockRun) windowCount(lo, hi int) int {
	n := 0
	for i := lo; i <= hi && i < len(br.index); i++ {
		if i >= 0 {
			n += br.index[i].count
		}
	}
	return n
}

// residentBytes is the run's actual memory footprint: encoded blocks plus
// sparse index and filter.
func (br *blockRun) residentBytes() int {
	n := br.encBytes + br.filter.sizeBytes()
	for i := range br.index {
		n += len(br.index[i].firstKey) + 16
	}
	return n
}
