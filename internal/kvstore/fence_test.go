package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// testFenceValue encodes the synthetic row format of the fence tests: an
// 8-byte big-endian timestamp followed by an arbitrary payload.
func testFenceValue(ts int64, payload []byte) []byte {
	v := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(v, uint64(ts))
	copy(v[8:], payload)
	return v
}

// testFenceExtractor summarizes a test row: point time interval, zero bbox.
func testFenceExtractor(_, value []byte) (Fence, bool) {
	if len(value) < 8 {
		return Fence{}, false
	}
	ts := int64(binary.BigEndian.Uint64(value))
	return Fence{MinT: ts, MaxT: ts}, true
}

// timeWindowFilter is a tri-state fence filter over the test row format.
type timeWindowFilter struct{ lo, hi int64 }

func (f timeWindowFilter) Accept(_, value []byte) bool {
	if len(value) < 8 {
		return false
	}
	ts := int64(binary.BigEndian.Uint64(value))
	return ts >= f.lo && ts <= f.hi
}

func (f timeWindowFilter) FenceVerdict(fc Fence) BlockVerdict {
	if fc.MaxT < f.lo || fc.MinT > f.hi {
		return VerdictSkip
	}
	if fc.MinT >= f.lo && fc.MaxT <= f.hi {
		return VerdictAcceptAll
	}
	return VerdictInspect
}

func randFences(rng *rand.Rand, n int) []blockFence {
	fences := make([]blockFence, n)
	for i := range fences {
		if rng.Intn(5) == 0 {
			continue // invalid
		}
		minT := rng.Int63n(1 << 40)
		x1, y1 := rng.Float64(), rng.Float64()
		fences[i] = blockFence{valid: true, f: Fence{
			MinT: minT, MaxT: minT + rng.Int63n(1<<20),
			MinX: x1, MinY: y1,
			MaxX: x1 + rng.Float64(), MaxY: y1 + rng.Float64(),
		}}
	}
	return fences
}

func TestFenceBlobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 300} {
		fences := randFences(rng, n)
		got, err := decodeFences(encodeFences(fences))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(got) != len(fences) {
			t.Fatalf("n=%d: decoded %d fences", n, len(got))
		}
		for i := range fences {
			if got[i] != fences[i] {
				t.Fatalf("n=%d: fence %d: got %+v want %+v", n, i, got[i], fences[i])
			}
		}
	}
}

// TestFenceBlobBitFlips: the checksum must reject every single-bit
// corruption of a fence blob — a flipped fence silently surviving decode
// could turn into a wrong Skip, which is a lost row.
func TestFenceBlobBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	blob := encodeFences(randFences(rng, 40))
	for bit := 0; bit < len(blob)*8; bit++ {
		tampered := append([]byte(nil), blob...)
		tampered[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeFences(tampered); err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", bit)
		}
	}
	for _, cut := range []int{0, 1, 4, 5, len(blob) / 2, len(blob) - 1} {
		if _, err := decodeFences(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

// TestFenceRejectsHostileValues: blobs that pass the checksum but carry
// semantic poison (NaN/Inf/inverted bboxes, absurd counts) must fail
// decode — NaN comparisons would silently invert disjointness tests.
func TestFenceRejectsHostileValues(t *testing.T) {
	cases := map[string][]blockFence{
		"nan":      {{valid: true, f: Fence{MinX: math.NaN(), MaxX: 1, MaxY: 1}}},
		"inf":      {{valid: true, f: Fence{MaxX: math.Inf(1), MaxY: 1}}},
		"inverted": {{valid: true, f: Fence{MinX: 2, MaxX: 1, MaxY: 1}}},
	}
	for name, fences := range cases {
		if _, err := decodeFences(encodeFences(fences)); err == nil {
			t.Errorf("%s: hostile fence decoded cleanly", name)
		}
	}
	// A checksum-valid blob claiming more fences than bytes must be
	// rejected before allocation.
	blob := []byte{0, 0, 0, 0, fenceFormatV1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	binary.LittleEndian.PutUint32(blob[:4], crc32.Checksum(blob[4:], crcTable))
	if _, err := decodeFences(blob); err == nil {
		t.Error("implausible count decoded cleanly")
	}
}

// FuzzDecodeFences throws arbitrary bytes at the fence decoder. It must
// never panic, and any blob it accepts must yield only well-formed fences
// (finite, non-inverted bounds) that survive a semantic re-encode round
// trip — the properties the pruning verdicts rely on.
func FuzzDecodeFences(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add(encodeFences(nil))
	f.Add(encodeFences(randFences(rng, 5)))
	f.Add(encodeFences(randFences(rng, 64)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, fenceFormatV1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fences, err := decodeFences(data)
		if err != nil {
			return
		}
		for i, bf := range fences {
			if !bf.valid {
				continue
			}
			fc := bf.f
			if fc.MinT > fc.MaxT {
				t.Fatalf("fence %d: accepted inverted time range %d..%d", i, fc.MinT, fc.MaxT)
			}
			if !finite(fc.MinX) || !finite(fc.MinY) || !finite(fc.MaxX) || !finite(fc.MaxY) {
				t.Fatalf("fence %d: accepted non-finite bbox %+v", i, fc)
			}
			if fc.MinX > fc.MaxX || fc.MinY > fc.MaxY {
				t.Fatalf("fence %d: accepted inverted bbox %+v", i, fc)
			}
		}
		again, err := decodeFences(encodeFences(fences))
		if err != nil {
			t.Fatalf("re-encode of accepted fences failed decode: %v", err)
		}
		if len(again) != len(fences) {
			t.Fatalf("re-encode changed count: %d vs %d", len(again), len(fences))
		}
		for i := range fences {
			if again[i] != fences[i] {
				t.Fatalf("fence %d changed across re-encode: %+v vs %+v", i, again[i], fences[i])
			}
		}
	})
}

// TestFenceTamperNeverSkips: a run whose fence blob is corrupted in flight
// must degrade to Inspect — never Skip — and keep answering scans exactly.
func TestFenceTamperNeverSkips(t *testing.T) {
	cfg := testBlockConfig(256, 10)
	cfg.fence = testFenceExtractor
	var es []entry
	for i := 0; i < 500; i++ {
		es = append(es, entry{
			key:   []byte(fmt.Sprintf("k/%06d", i)),
			value: testFenceValue(int64(i), bytes.Repeat([]byte{byte(i)}, 20)),
		})
	}
	br := newRunFromEntries(cfg, es)
	if br.fences == nil || !br.runFence.valid {
		t.Fatal("builder produced no fences")
	}

	ff := timeWindowFilter{lo: 100, hi: 199}
	if v := br.verdict(ff, 0, true); v != VerdictSkip {
		t.Fatalf("pre-tamper verdict on block 0 = %d, want Skip", v)
	}

	// Re-install a tampered blob: setFences must refuse it wholesale.
	tampered := append([]byte(nil), br.fenceBlob...)
	tampered[len(tampered)/2] ^= 0x40
	fresh := &blockRun{blocks: br.blocks}
	fresh.setFences(tampered)
	if fresh.fences != nil || fresh.runFence.valid {
		t.Fatal("tampered fence blob was installed")
	}
	for i := range fresh.blocks {
		if v := fresh.verdict(ff, i, true); v != VerdictInspect {
			t.Fatalf("block %d verdict after tamper = %d, want Inspect", i, v)
		}
	}
}

// TestFenceTombstonePoisonsBlock: a block containing any tombstone must
// carry no fence (skipping it could un-hide deleted keys in older runs).
func TestFenceTombstonePoisonsBlock(t *testing.T) {
	cfg := testBlockConfig(256, 10)
	cfg.fence = testFenceExtractor
	var es []entry
	for i := 0; i < 300; i++ {
		es = append(es, entry{
			key:   []byte(fmt.Sprintf("k/%06d", i)),
			value: testFenceValue(int64(i), bytes.Repeat([]byte{1}, 16)),
			tomb:  i == 150,
		})
	}
	br := newRunFromEntries(cfg, es)
	if br.runFence.valid {
		t.Fatal("run-level fence valid despite a tombstone-bearing block")
	}
	invalid := 0
	for _, bf := range br.fences {
		if !bf.valid {
			invalid++
		}
	}
	if invalid != 1 {
		t.Fatalf("%d unfenced blocks, want exactly the tombstone's", invalid)
	}
}

// fenceEquivStore loads a store whose table fences every run block with the
// synthetic time extractor: sequential writes (time correlated with key, so
// fences are tight), then overwrite waves that move rows' times in newer
// runs — the shadowing regime where an unsound Skip would resurface stale
// versions — plus deletes.
func fenceEquivStore(t *testing.T, disableFences bool) (*Store, *Table) {
	t.Helper()
	o := DefaultOptions()
	o.MemtableFlushBytes = 8 << 10
	o.RegionMaxBytes = 128 << 10
	o.BlockSizeBytes = 512
	o.DisableBlockFences = disableFences
	s := Open(o, TableFence{Table: "t", Extract: testFenceExtractor})
	tbl, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	payload := func() []byte {
		p := make([]byte, 16+rng.Intn(64))
		rng.Read(p)
		return p
	}
	for i := 0; i < 4000; i++ {
		tbl.Put([]byte(fmt.Sprintf("k/%06d", i)), testFenceValue(int64(i), payload()))
	}
	// Overwrite waves: shift a third of the keys far outside their original
	// times, so old runs hold in-window versions that newer runs shadow.
	for i := 0; i < 4000; i += 3 {
		tbl.Put([]byte(fmt.Sprintf("k/%06d", i)), testFenceValue(int64(i)+1_000_000, payload()))
	}
	for i := 0; i < 4000; i += 11 {
		tbl.Delete([]byte(fmt.Sprintf("k/%06d", i)))
	}
	s.Quiesce()
	return s, tbl
}

// TestFenceScanEquivalence is the tentpole invariant at the store layer:
// for every window the fence-aware scan returns byte-identical rows to the
// same filter run without fence support — across the multi-run shadowing
// state and again after full compaction — while visiting no more rows.
func TestFenceScanEquivalence(t *testing.T) {
	s, tbl := fenceEquivStore(t, false)
	windows := []timeWindowFilter{
		{lo: 0, hi: 500},
		{lo: 1500, hi: 1600},
		{lo: 3990, hi: 999_000_000},
		{lo: 1_000_000, hi: 1_004_000},
		{lo: 5000, hi: 900_000}, // nothing lives here
	}
	check := func(stage string) {
		t.Helper()
		for wi, ff := range windows {
			before := s.Stats().Snapshot()
			fenced := tbl.Scan(nil, nil, ff, 0)
			mid := s.Stats().Snapshot()
			plain := tbl.Scan(nil, nil, FilterFunc(ff.Accept), 0)
			after := s.Stats().Snapshot()
			if len(fenced) != len(plain) {
				t.Fatalf("%s window %d: %d rows fenced vs %d plain", stage, wi, len(fenced), len(plain))
			}
			for i := range fenced {
				if !bytes.Equal(fenced[i].Key, plain[i].Key) || !bytes.Equal(fenced[i].Value, plain[i].Value) {
					t.Fatalf("%s window %d row %d: %q vs %q", stage, wi, i, fenced[i].Key, plain[i].Key)
				}
			}
			fd, pd := Diff(before, mid), Diff(mid, after)
			if fd.RowsReturned != pd.RowsReturned {
				t.Fatalf("%s window %d: returned %d fenced vs %d plain", stage, wi, fd.RowsReturned, pd.RowsReturned)
			}
			if fd.RowsScanned > pd.RowsScanned {
				t.Fatalf("%s window %d: fenced visited %d rows, plain %d — pruning made it worse",
					stage, wi, fd.RowsScanned, pd.RowsScanned)
			}
		}
	}

	before := s.Stats().Snapshot()
	check("multi-run")
	if d := Diff(before, s.Stats().Snapshot()); d.BlocksSkipped == 0 {
		t.Fatal("multi-run scans skipped no blocks")
	}

	s.CompactAll()
	before = s.Stats().Snapshot()
	check("compacted")
	d := Diff(before, s.Stats().Snapshot())
	if d.BlocksSkipped == 0 {
		t.Fatal("post-compaction scans skipped no blocks")
	}
	if d.FenceBytesRead == 0 {
		t.Fatal("fence pruning charged no fence bytes")
	}
	if d.BlocksAcceptedWhole == 0 {
		t.Fatal("no block was wholesale-accepted despite fully-covered windows")
	}
}

// TestFenceDisabledOption: DisableBlockFences must leave runs fenceless —
// the unpruned reference — while returning identical scan results.
func TestFenceDisabledOption(t *testing.T) {
	s, tbl := fenceEquivStore(t, true)
	ff := timeWindowFilter{lo: 1500, hi: 1600}
	before := s.Stats().Snapshot()
	rows := tbl.Scan(nil, nil, ff, 0)
	d := Diff(before, s.Stats().Snapshot())
	if d.BlocksSkipped != 0 || d.FenceBytesRead != 0 {
		t.Fatalf("disabled fences still pruned: skipped=%d fenceBytes=%d", d.BlocksSkipped, d.FenceBytesRead)
	}
	se, te := fenceEquivStore(t, false)
	_ = se
	fenced := te.Scan(nil, nil, ff, 0)
	if len(rows) != len(fenced) {
		t.Fatalf("disabled %d rows vs fenced %d", len(rows), len(fenced))
	}
	for i := range rows {
		if !bytes.Equal(rows[i].Key, fenced[i].Key) || !bytes.Equal(rows[i].Value, fenced[i].Value) {
			t.Fatalf("row %d differs across the fence option", i)
		}
	}
}
