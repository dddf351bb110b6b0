package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestSkiplistSetGet(t *testing.T) {
	s := newSkiplist(1)
	s.set([]byte("b"), []byte("2"), false)
	s.set([]byte("a"), []byte("1"), false)
	s.set([]byte("c"), []byte("3"), false)
	v, tomb, found := s.get([]byte("b"))
	if !found || tomb || string(v) != "2" {
		t.Fatalf("get b = %q tomb=%v found=%v", v, tomb, found)
	}
	if _, _, found := s.get([]byte("zz")); found {
		t.Error("missing key reported found")
	}
	// Replace.
	s.set([]byte("b"), []byte("22"), false)
	v, _, _ = s.get([]byte("b"))
	if string(v) != "22" {
		t.Errorf("replace failed: %q", v)
	}
	if s.size != 3 {
		t.Errorf("size = %d, want 3 (replace must not grow)", s.size)
	}
	// Tombstone.
	s.set([]byte("a"), nil, true)
	_, tomb, found = s.get([]byte("a"))
	if !found || !tomb {
		t.Error("tombstone not recorded")
	}
}

func TestSkiplistOrderAndSeek(t *testing.T) {
	s := newSkiplist(2)
	rng := rand.New(rand.NewSource(3))
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", rng.Intn(100000))
		s.set([]byte(keys[i]), []byte("v"), false)
	}
	var prev []byte
	count := 0
	for n := s.first(); n != nil; n = n.next[0] {
		if prev != nil && bytes.Compare(prev, n.key) >= 0 {
			t.Fatalf("order violated: %q then %q", prev, n.key)
		}
		prev = n.key
		count++
	}
	uniq := map[string]bool{}
	for _, k := range keys {
		uniq[k] = true
	}
	if count != len(uniq) {
		t.Errorf("iterated %d, want %d unique", count, len(uniq))
	}
	// Seek semantics.
	n := s.seek([]byte("key-"))
	if n == nil || bytes.Compare(n.key, []byte("key-")) < 0 {
		t.Error("seek returned key before target")
	}
	if s.seek([]byte("zzz")) != nil {
		t.Error("seek past end should be nil")
	}
}

func TestMergeRunsShadowing(t *testing.T) {
	newer := []entry{{key: []byte("a"), value: []byte("new")}, {key: []byte("c"), tomb: true}}
	older := []entry{{key: []byte("a"), value: []byte("old")}, {key: []byte("b"), value: []byte("1")}, {key: []byte("c"), value: []byte("dead")}}
	cfg := testBlockConfig(4<<10, 10)
	runs := []*blockRun{newRunFromEntries(cfg, older), newRunFromEntries(cfg, newer)}
	got := mergeRunWindow(cfg, runs, nil, nil, true).materialize()
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(got), got)
	}
	if string(got[0].key) != "a" || string(got[0].value) != "new" {
		t.Errorf("newest version should win: %+v", got[0])
	}
	if string(got[1].key) != "b" {
		t.Errorf("entry b missing: %+v", got[1])
	}
	// Tombstones preserved when not dropping.
	got = mergeRunWindow(cfg, runs, nil, nil, false).materialize()
	if len(got) != 3 || !got[2].tomb {
		t.Errorf("tombstone should be preserved: %+v", got)
	}
}

func TestTablePutGetDelete(t *testing.T) {
	s := Open(Options{})
	tbl, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Put([]byte("k1"), []byte("v1"))
	if v, ok := tbl.Get([]byte("k1")); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	tbl.Delete([]byte("k1"))
	if _, ok := tbl.Get([]byte("k1")); ok {
		t.Error("deleted key still visible")
	}
	// Reinsert after delete.
	tbl.Put([]byte("k1"), []byte("v2"))
	if v, ok := tbl.Get([]byte("k1")); !ok || string(v) != "v2" {
		t.Errorf("reinsert = %q, %v", v, ok)
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	s := Open(Options{})
	if _, err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t"); err == nil {
		t.Error("duplicate table name should error")
	}
	if s.Table("missing") != nil {
		t.Error("missing table should be nil")
	}
	if s.OpenTable("t") == nil || s.OpenTable("u") == nil {
		t.Error("OpenTable should always return a table")
	}
}

func TestScanOrderedAndFiltered(t *testing.T) {
	s := Open(Options{})
	tbl, _ := s.CreateTable("t")
	rng := rand.New(rand.NewSource(9))
	want := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("row-%05d", rng.Intn(10000))
		v := fmt.Sprintf("val-%d", i)
		want[k] = v
		tbl.Put([]byte(k), []byte(v))
	}
	got := tbl.Scan(nil, nil, nil, 0)
	if len(got) != len(want) {
		t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
			t.Fatalf("scan order violated at %d", i)
		}
	}
	for _, kv := range got {
		if want[string(kv.Key)] != string(kv.Value) {
			t.Fatalf("row %q = %q, want %q", kv.Key, kv.Value, want[string(kv.Key)])
		}
	}

	// Bounded range.
	lo, hi := []byte("row-02000"), []byte("row-03000")
	ranged := tbl.Scan(lo, hi, nil, 0)
	for _, kv := range ranged {
		if bytes.Compare(kv.Key, lo) < 0 || bytes.Compare(kv.Key, hi) >= 0 {
			t.Fatalf("row %q outside range", kv.Key)
		}
	}
	wantCount := 0
	for k := range want {
		if k >= "row-02000" && k < "row-03000" {
			wantCount++
		}
	}
	if len(ranged) != wantCount {
		t.Errorf("ranged scan = %d rows, want %d", len(ranged), wantCount)
	}

	// Push-down filter: only even-suffix values.
	before := s.Stats().Snapshot()
	filtered := tbl.Scan(nil, nil, FilterFunc(func(k, v []byte) bool {
		return len(v) > 0 && (v[len(v)-1]-'0')%2 == 0
	}), 0)
	d := Diff(before, s.Stats().Snapshot())
	if d.RowsScanned != int64(len(want)) {
		t.Errorf("RowsScanned = %d, want %d", d.RowsScanned, len(want))
	}
	if d.RowsReturned != int64(len(filtered)) {
		t.Errorf("RowsReturned = %d, want %d", d.RowsReturned, len(filtered))
	}
	if len(filtered) == 0 || len(filtered) == len(want) {
		t.Errorf("filter had no effect: %d of %d", len(filtered), len(want))
	}
}

func TestScanLimit(t *testing.T) {
	s := Open(Options{})
	tbl, _ := s.CreateTable("t")
	for i := 0; i < 100; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	got := tbl.Scan(nil, nil, nil, 7)
	if len(got) != 7 {
		t.Errorf("limit scan = %d rows, want 7", len(got))
	}
	if string(got[0].Key) != "k000" {
		t.Errorf("limited scan should return smallest keys first, got %q", got[0].Key)
	}
}

func TestRegionSplitPreservesData(t *testing.T) {
	s := Open(Options{RegionMaxBytes: 64 << 10, MemtableFlushBytes: 8 << 10})
	tbl, _ := s.CreateTable("t")
	const n = 5000
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < n; i++ {
		tbl.Put([]byte(fmt.Sprintf("key-%08d", i)), val)
	}
	if tbl.RegionCount() < 2 {
		t.Fatalf("expected splits, still %d region(s)", tbl.RegionCount())
	}
	got := tbl.Scan(nil, nil, nil, 0)
	if len(got) != n {
		t.Fatalf("after splits scan returned %d rows, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
			t.Fatalf("order violated after splits at %d", i)
		}
	}
	// Point lookups still work across regions.
	for _, i := range []int{0, 1, n / 3, n / 2, n - 1} {
		if _, ok := tbl.Get([]byte(fmt.Sprintf("key-%08d", i))); !ok {
			t.Fatalf("key %d lost after split", i)
		}
	}
	if s.Stats().Snapshot().RegionSplits == 0 {
		t.Error("split counter not incremented")
	}
}

func TestScanRangesMultiWindow(t *testing.T) {
	s := Open(Options{})
	tbl, _ := s.CreateTable("t")
	for i := 0; i < 1000; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%04d", i)), []byte{byte(i)})
	}
	ranges := []KeyRange{
		{Start: []byte("k0100"), End: []byte("k0110")},
		{Start: []byte("k0500"), End: []byte("k0505")},
		{Start: []byte("k0990"), End: nil},
	}
	got := tbl.ScanRanges(ranges, nil, 0)
	if len(got) != 10+5+10 {
		t.Fatalf("multi-range scan = %d rows, want 25", len(got))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
			t.Fatalf("multi-range order violated at %d", i)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := Open(Options{RegionMaxBytes: 32 << 10, MemtableFlushBytes: 4 << 10})
	tbl, _ := s.CreateTable("t")
	var wg sync.WaitGroup
	const writers, rows = 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				tbl.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), []byte("value-payload"))
			}
		}(w)
	}
	// Concurrent scanners.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				out := tbl.Scan(nil, nil, nil, 0)
				for j := 1; j < len(out); j++ {
					if bytes.Compare(out[j-1].Key, out[j].Key) >= 0 {
						t.Error("concurrent scan order violated")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	got := tbl.Scan(nil, nil, nil, 0)
	if len(got) != writers*rows {
		t.Fatalf("final row count = %d, want %d", len(got), writers*rows)
	}
}

func TestDeleteAcrossFlushes(t *testing.T) {
	s := Open(Options{MemtableFlushBytes: 1 << 10, RegionMaxBytes: 1 << 30})
	tbl, _ := s.CreateTable("t")
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 100; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%03d", i)), val)
	}
	// Delete half after the data has been flushed into runs.
	for i := 0; i < 100; i += 2 {
		tbl.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	got := tbl.Scan(nil, nil, nil, 0)
	if len(got) != 50 {
		t.Fatalf("after deletes scan = %d rows, want 50", len(got))
	}
	for _, kv := range got {
		var i int
		fmt.Sscanf(string(kv.Key), "k%03d", &i)
		if i%2 == 0 {
			t.Fatalf("deleted key %q still present", kv.Key)
		}
	}
}

func TestChainFilter(t *testing.T) {
	f1 := FilterFunc(func(k, v []byte) bool { return len(k) > 1 })
	f2 := FilterFunc(func(k, v []byte) bool { return k[0] == 'a' })
	c := Chain(f1, nil, f2)
	if !c.Accept([]byte("ab"), nil) {
		t.Error("chain should accept when all pass")
	}
	if c.Accept([]byte("bb"), nil) || c.Accept([]byte("a"), nil) {
		t.Error("chain should reject when any fails")
	}
	if Chain() != nil || Chain(nil) != nil {
		t.Error("empty chain should be nil")
	}
	if Chain(f1) == nil {
		t.Error("single-filter chain should pass through")
	}
}

func TestScanMatchesSortedOracle(t *testing.T) {
	s := Open(Options{MemtableFlushBytes: 2 << 10, RegionMaxBytes: 16 << 10})
	tbl, _ := s.CreateTable("t")
	rng := rand.New(rand.NewSource(77))
	oracle := map[string]string{}
	for op := 0; op < 10000; op++ {
		k := fmt.Sprintf("%04d", rng.Intn(3000))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("%d", op)
			oracle[k] = v
			tbl.Put([]byte(k), []byte(v))
		case 2:
			delete(oracle, k)
			tbl.Delete([]byte(k))
		}
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := tbl.Scan(nil, nil, nil, 0)
	if len(got) != len(keys) {
		t.Fatalf("scan = %d rows, oracle = %d", len(got), len(keys))
	}
	for i, k := range keys {
		if string(got[i].Key) != k || string(got[i].Value) != oracle[k] {
			t.Fatalf("row %d: got %q=%q, want %q=%q", i, got[i].Key, got[i].Value, k, oracle[k])
		}
	}
}
