package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// testBlockConfig returns a block config with no cache wired, so fetches
// decode directly and tests exercise the format, not the cache.
func testBlockConfig(blockBytes, bloomBits int) *blockConfig {
	return &blockConfig{blockBytes: blockBytes, bloomBits: bloomBits}
}

// buildEntries generates n strictly-ascending entries with trajectory-style
// composite keys (long shared prefixes), mixed value sizes, empty values,
// and periodic tombstones.
func buildEntries(n int, seed int64) []entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]entry, 0, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("traj/%04d/%010d", i/64, i))
		var value []byte
		switch i % 7 {
		case 0: // empty value
		case 1:
			value = bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(8))
		default:
			value = make([]byte, rng.Intn(200))
			rng.Read(value)
		}
		out = append(out, entry{key: key, value: value, tomb: i%13 == 0})
	}
	return out
}

func TestBlockRoundTrip(t *testing.T) {
	for _, blockBytes := range []int{512, 4 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("block%d", blockBytes), func(t *testing.T) {
			es := buildEntries(2000, 42)
			cfg := testBlockConfig(blockBytes, 10)
			br := newRunFromEntries(cfg, es)

			if !entriesEqual(br.materialize(), es) {
				t.Fatal("materialize does not round-trip the input entries")
			}
			if br.count != len(es) {
				t.Fatalf("count = %d, want %d", br.count, len(es))
			}
			wantRaw := 0
			for i := range es {
				wantRaw += len(es[i].key) + len(es[i].value)
			}
			if br.rawBytes != wantRaw {
				t.Fatalf("rawBytes = %d, want %d", br.rawBytes, wantRaw)
			}
			gotEnc := 0
			for _, blk := range br.blocks {
				gotEnc += len(blk)
			}
			if br.encBytes != gotEnc {
				t.Fatalf("encBytes = %d, blocks total %d", br.encBytes, gotEnc)
			}
			if len(br.index) != len(br.blocks) {
				t.Fatalf("index has %d rows for %d blocks", len(br.index), len(br.blocks))
			}
			// Index invariants: firstKey matches the block's first entry and
			// counts sum to the run count.
			sum, pos := 0, 0
			for i, blk := range br.blocks {
				got, _, err := decodeBlock(blk)
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				if !bytes.Equal(br.index[i].firstKey, got[0].key) {
					t.Fatalf("block %d: index firstKey %q, block starts %q", i, br.index[i].firstKey, got[0].key)
				}
				if br.index[i].count != len(got) {
					t.Fatalf("block %d: index count %d, block holds %d", i, br.index[i].count, len(got))
				}
				if !entriesEqual(got, es[pos:pos+len(got)]) {
					t.Fatalf("block %d: content mismatch", i)
				}
				sum += len(got)
				pos += len(got)
			}
			if sum != br.count {
				t.Fatalf("index counts sum to %d, run count %d", sum, br.count)
			}
			if blockBytes <= 4<<10 && len(br.blocks) < 2 {
				t.Fatalf("expected a multi-block run at %d-byte blocks, got %d blocks", blockBytes, len(br.blocks))
			}
		})
	}
}

func TestBlockRunGet(t *testing.T) {
	es := buildEntries(1500, 7)
	br := newRunFromEntries(testBlockConfig(1024, 10), es)
	for i := range es {
		v, tomb, found, _ := br.get(es[i].key)
		if !found {
			t.Fatalf("key %q not found (bloom false negative or seek bug)", es[i].key)
		}
		if !bytes.Equal(v, es[i].value) || tomb != es[i].tomb {
			t.Fatalf("key %q: got (%q, %v), want (%q, %v)", es[i].key, v, tomb, es[i].value, es[i].tomb)
		}
	}
	for _, miss := range [][]byte{[]byte("a"), []byte("traj/0000/0000000000x"), []byte("zzz")} {
		if _, _, found, _ := br.get(miss); found {
			t.Fatalf("absent key %q reported found", miss)
		}
	}
}

func TestBlockRunEmptyAndSingle(t *testing.T) {
	cfg := testBlockConfig(4<<10, 10)
	empty := newRunFromEntries(cfg, nil)
	if empty.count != 0 || len(empty.blocks) != 0 || empty.filter != nil {
		t.Fatalf("empty run: count=%d blocks=%d filter=%v", empty.count, len(empty.blocks), empty.filter)
	}
	if _, _, found, _ := empty.get([]byte("k")); found {
		t.Fatal("empty run found a key")
	}
	if got := empty.materialize(); len(got) != 0 {
		t.Fatalf("empty run materializes %d entries", len(got))
	}

	single := newRunFromEntries(cfg, []entry{{key: []byte("only"), value: []byte("v"), tomb: false}})
	if single.count != 1 || len(single.blocks) != 1 {
		t.Fatalf("single-entry run: count=%d blocks=%d", single.count, len(single.blocks))
	}
	v, _, found, _ := single.get([]byte("only"))
	if !found || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("single-entry get = (%q, %v)", v, found)
	}
	if _, _, found, _ := single.get([]byte("onlx")); found {
		t.Fatal("single-entry run found an absent key")
	}
}

// TestDecodeBlockTruncation feeds every proper prefix of a valid block to
// the decoder: all must fail with ErrBlockCorrupt, none may panic.
func TestDecodeBlockTruncation(t *testing.T) {
	br := newRunFromEntries(testBlockConfig(1024, 0), buildEntries(300, 3))
	enc := br.blocks[0]
	for n := 0; n < len(enc); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decodeBlock panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, _, err := decodeBlock(enc[:n]); err == nil {
				t.Fatalf("%d-byte truncation decoded successfully", n)
			}
		}()
	}
}

// TestDecodeBlockBitFlips flips one bit at every byte offset: the checksum
// must reject every single-bit corruption.
func TestDecodeBlockBitFlips(t *testing.T) {
	br := newRunFromEntries(testBlockConfig(2048, 0), buildEntries(400, 9))
	enc := br.blocks[0]
	mut := make([]byte, len(enc))
	for off := 0; off < len(enc); off++ {
		copy(mut, enc)
		mut[off] ^= 1 << (off % 8)
		if _, _, err := decodeBlock(mut); err == nil {
			t.Fatalf("bit flip at offset %d decoded successfully", off)
		}
	}
}

// refix recomputes the checksum so tampered payloads pass the CRC and hit
// the structural validators behind it.
func refix(enc []byte) []byte {
	binary.LittleEndian.PutUint32(enc[:4], crc32.Checksum(enc[4:], crcTable))
	return enc
}

// TestDecodeBlockTamperedStructures corrupts specific header fields and
// repairs the checksum: the structural validation must still reject each.
func TestDecodeBlockTamperedStructures(t *testing.T) {
	br := newRunFromEntries(testBlockConfig(1024, 0), buildEntries(200, 11))
	base := br.blocks[0]

	tamper := func(name string, mutate func(enc []byte) []byte) {
		enc := append([]byte(nil), base...)
		enc = refix(mutate(enc))
		if _, _, err := decodeBlock(enc); err == nil {
			t.Errorf("%s: tampered block decoded successfully", name)
		}
	}
	tamper("bad format version", func(enc []byte) []byte { enc[4] = 99; return enc })
	tamper("zero entry count", func(enc []byte) []byte {
		// count is the first uvarint after the version byte; blocks here
		// hold <128 entries so it is a single byte.
		enc[5] = 0
		return enc
	})
	tamper("inflated entry count", func(enc []byte) []byte { enc[5] = 127; return enc })
	tamper("truncated stream", func(enc []byte) []byte { return enc[:len(enc)-3] })
	tamper("trailing garbage", func(enc []byte) []byte { return append(enc, 0xAB) })
	// A flipped value byte with a repaired CRC is NOT detectable — values
	// are arbitrary — so corruption there must be caught by the checksum
	// alone, which TestDecodeBlockBitFlips covers. Here corrupt the restart
	// words instead, which the offset/entry cross-check rejects.
	tamper("corrupt restart words", func(enc []byte) []byte { enc[12] ^= 0xFF; return enc })
}

func TestBloomProperties(t *testing.T) {
	const n, bitsPerKey = 10000, 10
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = bloomHash([]byte(fmt.Sprintf("present/%08d", i)))
	}
	f := newBloom(hashes, bitsPerKey)
	if f == nil {
		t.Fatal("newBloom returned nil for a populated filter")
	}
	for i := range hashes {
		if !f.mayContain(hashes[i]) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.mayContain(bloomHash([]byte(fmt.Sprintf("absent/%08d", i)))) {
			fp++
		}
	}
	// 10 bits/key gives ~1% theoretical FP; 5% leaves slack for hash luck.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.4f too high for %d bits/key", rate, bitsPerKey)
	}
	if f.sizeBytes() == 0 {
		t.Fatal("populated filter reports zero size")
	}
	var nilFilter *bloom
	if nilFilter.sizeBytes() != 0 {
		t.Fatal("nil filter reports nonzero size")
	}
	if newBloom(nil, bitsPerKey) != nil || newBloom(hashes, 0) != nil {
		t.Fatal("disabled/empty bloom must be nil")
	}
}

// TestBlockCacheWarmScanCheaper is the headline perf property: repeating a
// scan with a warm block cache charges strictly less simulated disk I/O
// than the cold pass, because resident decoded blocks cost nothing.
func TestBlockCacheWarmScanCheaper(t *testing.T) {
	bs, blockTbl := churnStore(t)

	cold := bs.Stats().Snapshot()
	blockTbl.Scan(nil, nil, nil, 0)
	coldDiff := Diff(cold, bs.Stats().Snapshot())

	warm := bs.Stats().Snapshot()
	blockTbl.Scan(nil, nil, nil, 0)
	warmDiff := Diff(warm, bs.Stats().Snapshot())

	if coldDiff.BlockCacheMisses == 0 {
		t.Fatal("cold scan fetched no blocks — workload never flushed?")
	}
	if warmDiff.BlockCacheHits == 0 {
		t.Fatal("warm scan hit no cached blocks")
	}
	if warmDiff.BlockReadBytes >= coldDiff.BlockReadBytes {
		t.Fatalf("warm scan read %d encoded bytes, cold read %d — cache bought nothing",
			warmDiff.BlockReadBytes, coldDiff.BlockReadBytes)
	}
	if warmDiff.SimIONanos >= coldDiff.SimIONanos {
		t.Fatalf("warm scan charged %dns, cold charged %dns — warm must be cheaper",
			warmDiff.SimIONanos, coldDiff.SimIONanos)
	}
}

// TestBloomSkipsPointLookups: gets for keys that miss every run must be
// answered mostly by bloom negatives, without touching blocks.
func TestBloomSkipsPointLookups(t *testing.T) {
	bs, blockTbl := churnStore(t)

	before := bs.Stats().Snapshot()
	const probes = 3000
	for i := 0; i < probes; i++ {
		if _, ok := blockTbl.Get([]byte(fmt.Sprintf("absent/%08d", i))); ok {
			t.Fatalf("absent key %d found", i)
		}
	}
	d := Diff(before, bs.Stats().Snapshot())
	if d.BloomChecks == 0 {
		t.Fatal("no bloom checks recorded")
	}
	// Absent keys should be rejected by the filter almost always; block
	// fetches happen only on the ~1% false positives.
	if d.BloomNegatives < d.BloomChecks*9/10 {
		t.Fatalf("bloom rejected %d of %d checks — filter ineffective", d.BloomNegatives, d.BloomChecks)
	}
	if d.BloomFalsePositives > d.BloomChecks/10 {
		t.Fatalf("%d false positives in %d checks", d.BloomFalsePositives, d.BloomChecks)
	}
	if d.BlockCacheMisses+d.BlockCacheHits > d.BloomFalsePositives {
		t.Fatalf("%d block fetches for %d false positives — gets bypassing the filter",
			d.BlockCacheMisses+d.BlockCacheHits, d.BloomFalsePositives)
	}
}

// FuzzDecodeBlock throws arbitrary bytes at the decoder. It must never
// panic, and anything it accepts must satisfy the format's invariants.
func FuzzDecodeBlock(f *testing.F) {
	for _, blockBytes := range []int{256, 1024} {
		br := newRunFromEntries(testBlockConfig(blockBytes, 0), buildEntries(200, int64(blockBytes)))
		for _, blk := range br.blocks {
			f.Add(append([]byte(nil), blk...))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, blockFormatV1, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, rawBytes, err := decodeBlock(data)
		if err != nil {
			return
		}
		got := 0
		for i := range entries {
			if i > 0 && bytes.Compare(entries[i-1].key, entries[i].key) >= 0 {
				t.Fatalf("accepted block with unsorted keys at %d", i)
			}
			got += len(entries[i].key) + len(entries[i].value)
		}
		if got != rawBytes {
			t.Fatalf("accepted block where entries total %d bytes but header says %d", got, rawBytes)
		}
	})
}
