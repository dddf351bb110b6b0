package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPickCompaction exercises the policy function directly on synthetic
// run lists (pickCompaction reads only rawBytes and group).
func TestPickCompaction(t *testing.T) {
	mk := func(sizes ...int) []*blockRun {
		rs := make([]*blockRun, len(sizes))
		for i, b := range sizes {
			rs[i] = &blockRun{rawBytes: b}
		}
		return rs
	}
	pol := compactPolicy{fanIn: 4, subRanges: 4}

	// Four same-tier runs (1100..1500 all sit in tier [1024,2048)): merge all four.
	if lo, hi, ok := pickCompaction(mk(1<<20, 1100, 1200, 1300, 1500), pol, 8); !ok || lo != 1 || hi != 5 {
		t.Fatalf("streak pick = [%d,%d) ok=%v, want [1,5) true", lo, hi, ok)
	}
	// Two streaks in different tiers: the smaller tier wins.
	if lo, hi, ok := pickCompaction(mk(1<<20, 1<<20, 1<<20, 1<<20, 100, 100, 100, 100), pol, 99); !ok || lo != 4 || hi != 8 {
		t.Fatalf("tier preference pick = [%d,%d) ok=%v, want [4,8) true", lo, hi, ok)
	}
	// Streak longer than fanIn: only the oldest fanIn runs merge.
	if lo, hi, ok := pickCompaction(mk(100, 100, 100, 100, 100, 100), pol, 99); !ok || lo != 0 || hi != 4 {
		t.Fatalf("fan-in bound pick = [%d,%d) ok=%v, want [0,4) true", lo, hi, ok)
	}
	// No streak, under maxRuns: fixpoint.
	if _, _, ok := pickCompaction(mk(1<<20, 1<<10, 1<<5), pol, 8); ok {
		t.Fatal("expected fixpoint for mixed tiers under maxRuns")
	}
	// No streak, over maxRuns: cheapest adjacent pair merges.
	if lo, hi, ok := pickCompaction(mk(1<<20, 1<<14, 1<<10, 1<<6), pol, 3); !ok || lo != 2 || hi != 4 {
		t.Fatalf("overflow pick = [%d,%d) ok=%v, want [2,4) true", lo, hi, ok)
	}
	// Fragments of one partitioned merge count as ONE logical run: a group of
	// four same-size fragments must not be re-merged with itself.
	frag := mk(100, 100, 100, 100)
	for _, r := range frag {
		r.group = 7
	}
	if _, _, ok := pickCompaction(frag, pol, 8); ok {
		t.Fatal("policy re-merged the fragments of one partitioned compaction")
	}
}

// TestTombstoneSurvivesMidTierMerge pins the tombstone rule: a delete whose
// run is merged ABOVE older data must keep shadowing it; only a bottom merge
// may drop tombstones.
func TestTombstoneSurvivesMidTierMerge(t *testing.T) {
	o := DefaultOptions()
	o.MemtableFlushBytes = 1 << 30 // keep the memtable out of the way; runs are installed by hand
	s := Open(o)
	defer s.Close()
	tbl, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// Build runs by hand through the region internals: old value, then a
	// tombstone, then newer unrelated runs that merge above the bottom.
	r := tbl.regions[0]
	mkRun := func(k string, tomb bool, pad int) *blockRun {
		e := entry{key: []byte(k), tomb: tomb}
		if !tomb {
			e.value = bytes.Repeat([]byte("v"), pad)
		}
		return newRunFromEntries(r.bcfg, []entry{e})
	}
	r.mu.Lock()
	r.runs = []*blockRun{
		mkRun("key", false, 10), // oldest: the live value
		mkRun("key", true, 0),   // tombstone in a young run
		mkRun("other-a", false, 8),
		mkRun("other-b", false, 8),
	}
	// Merge the top three runs — a mid-tier window NOT touching runs[0].
	frags := r.compactGroup(r.runs, 1, 4, s.Stats(), false)
	r.runs = spliceRuns(r.runs, 1, 4, frags)
	r.mu.Unlock()

	if _, ok := tbl.Get([]byte("key")); ok {
		t.Fatal("tombstone dropped by a mid-tier merge: deleted key resurfaced")
	}
	// A bottom merge may (and does) drop it for good.
	r.mu.Lock()
	frags = r.compactGroup(r.runs, 0, len(r.runs), s.Stats(), false)
	r.runs = spliceRuns(r.runs, 0, len(r.runs), frags)
	total := 0
	for _, run := range r.runs {
		total += run.count
	}
	r.mu.Unlock()
	if _, ok := tbl.Get([]byte("key")); ok {
		t.Fatal("deleted key resurfaced after bottom merge")
	}
	if total != 2 {
		t.Fatalf("bottom merge kept %d entries, want 2 (tombstone and shadowed value gone)", total)
	}
}

// TestConcurrentSubCompactions hammers the flusher helper pool: many
// goroutines ingesting into many regions with tiny flush thresholds and
// aggressive sub-range partitioning, interleaved with table-wide compactions
// and scans. Run under -race this is the scheduler's data-race canary; the
// final full scan checks nothing was lost or duplicated.
func TestConcurrentSubCompactions(t *testing.T) {
	o := DefaultOptions()
	o.MemtableFlushBytes = 4 << 10
	o.RegionMaxBytes = 64 << 10
	o.CompactSubRanges = 8
	o.CompactFanIn = 2 // merge eagerly: maximum churn
	o.FlushWorkers = 4
	s := Open(o)
	defer s.Close()
	tbl, err := s.CreateTable("stress")
	if err != nil {
		t.Fatal(err)
	}

	const writers, rows = 8, 1500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var kvs []KV
			for i := 0; i < rows; i++ {
				k := []byte(fmt.Sprintf("w%02d/%08d", w, i))
				v := make([]byte, 30+rng.Intn(200))
				rng.Read(v)
				kvs = append(kvs, KV{Key: k, Value: v})
				if len(kvs) == 100 {
					tbl.MultiPut(kvs)
					kvs = kvs[:0]
				}
			}
			tbl.MultiPut(kvs)
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			s.CompactAll()
			_ = tbl.Scan(nil, nil, nil, 50)
		}
	}()
	wg.Wait()
	<-done
	s.Quiesce()

	got := tbl.Scan(nil, nil, nil, 0)
	if len(got) != writers*rows {
		t.Fatalf("scan returned %d rows, want %d", len(got), writers*rows)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
			t.Fatalf("scan order violated at %d: %q >= %q", i, got[i-1].Key, got[i].Key)
		}
	}
}
