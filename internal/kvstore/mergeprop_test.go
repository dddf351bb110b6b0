package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// referenceMerge is the pre-overhaul linear k-way merge, kept verbatim as
// the correctness oracle for the heap merge: per emitted entry it scans all
// cursors for the smallest key (ties resolved newest-first), then advances
// every cursor past that key so shadowed versions are skipped.
func referenceMerge(sources [][]entry, dropTombs bool) []entry {
	type cursor struct {
		src []entry
		pos int
		pri int // lower = newer
	}
	cursors := make([]*cursor, 0, len(sources))
	total := 0
	for pri, src := range sources {
		if len(src) > 0 {
			cursors = append(cursors, &cursor{src: src, pri: pri})
			total += len(src)
		}
	}
	out := make([]entry, 0, total)
	for {
		var best *cursor
		for _, c := range cursors {
			if c.pos >= len(c.src) {
				continue
			}
			if best == nil {
				best = c
				continue
			}
			cmp := bytes.Compare(c.src[c.pos].key, best.src[best.pos].key)
			if cmp < 0 || (cmp == 0 && c.pri < best.pri) {
				best = c
			}
		}
		if best == nil {
			return out
		}
		e := best.src[best.pos]
		for _, c := range cursors {
			for c.pos < len(c.src) && bytes.Equal(c.src[c.pos].key, e.key) {
				c.pos++
			}
		}
		if e.tomb && dropTombs {
			continue
		}
		out = append(out, e)
	}
}

// randomMergeSources draws up to 8 sorted sources (so both the linear and
// the heap mode of the iterator are hit) over a small key universe so
// cross-source duplicates (shadowing) are common; values vary per source so
// the winning version is observable, and tombstones appear throughout. Keys
// are unique within a source, as in a run or a memtable.
func randomMergeSources(rng *rand.Rand) [][]entry {
	k := rng.Intn(9)
	sources := make([][]entry, k)
	for s := range sources {
		var src []entry
		for kv := 0; kv < 60; kv++ {
			if rng.Intn(3) != 0 {
				continue
			}
			e := entry{key: mergeKey(kv)}
			if rng.Intn(4) == 0 {
				e.tomb = true
			} else {
				e.value = []byte(fmt.Sprintf("val-%02d-src%d-%d", kv, s, rng.Intn(1000)))
			}
			src = append(src, e)
		}
		sources[s] = src
	}
	return sources
}

func mergeKey(kv int) []byte { return []byte(fmt.Sprintf("key-%02d", kv)) }

// cursorMerge merges newest-to-oldest sources over the [lo, hi) window
// through the production cursors: every source becomes a block run with
// blocks of two or three entries, so windows start and end mid-block,
// except source memAt (when in range), which is a live skiplist walk.
func cursorMerge(sources [][]entry, memAt int, lo, hi []byte, dropTombs bool) []entry {
	cfg := testBlockConfig(64, 0)
	sc := getScanScratch(len(sources))
	defer sc.release()
	for pri, src := range sources {
		sc.cursors = append(sc.cursors, mergeCursor{})
		c := &sc.cursors[len(sc.cursors)-1]
		if pri != memAt {
			c.initBlock(newRunFromEntries(cfg, src), lo, hi, pri, true, nil, false, nil)
			continue
		}
		m := newSkiplist(int64(pri) + 1)
		for _, e := range src {
			m.set(e.key, e.value, e.tomb)
		}
		start := m.first()
		if lo != nil {
			start = m.seek(lo)
		}
		c.initMem(start, hi, pri)
	}
	it := sc.start()
	var out []entry
	for {
		e, _, ok := it.next()
		if !ok {
			return out
		}
		if !e.tomb || !dropTombs {
			out = append(out, e)
		}
	}
}

// inWindow keeps the entries of a merged sequence that fall in [lo, hi):
// merging is per key, so cutting the output equals cutting every source.
func inWindow(es []entry, lo, hi []byte) []entry {
	var out []entry
	for _, e := range es {
		if (lo == nil || bytes.Compare(e.key, lo) >= 0) && (hi == nil || bytes.Compare(e.key, hi) < 0) {
			out = append(out, e)
		}
	}
	return out
}

func entriesEqual(a, b []entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) || a[i].tomb != b[i].tomb {
			return false
		}
	}
	return true
}

// TestHeapMergeMatchesReference property-checks the cursor merge against
// the old linear merge: identical keys, values, tombstone handling, and
// newest-wins shadowing on arbitrary sorted sources and key windows, with
// and without tombstone dropping, with block-run sources alone (the
// compaction shape, also checked through mergeRunWindow) and with one live
// skiplist among them (the scan shape).
func TestHeapMergeMatchesReference(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			sources := randomMergeSources(rng)
			args[0] = reflect.ValueOf(sources)
			args[1] = reflect.ValueOf(rng.Intn(len(sources)+2) - 1) // -1 or len: no skiplist source
			var lo, hi []byte
			if rng.Intn(2) == 0 {
				lo = mergeKey(rng.Intn(40))
			}
			if rng.Intn(2) == 0 {
				hi = mergeKey(20 + rng.Intn(45))
			}
			args[2], args[3] = reflect.ValueOf(lo), reflect.ValueOf(hi)
			args[4] = reflect.ValueOf(rng.Intn(2) == 0)
		},
	}
	f := func(sources [][]entry, memAt int, lo, hi []byte, dropTombs bool) bool {
		want := inWindow(referenceMerge(sources, dropTombs), lo, hi)
		if !entriesEqual(cursorMerge(sources, memAt, lo, hi, dropTombs), want) {
			return false
		}
		bcfg := testBlockConfig(64, 0)
		runs := make([]*blockRun, len(sources)) // oldest first
		for i, src := range sources {
			runs[len(sources)-1-i] = newRunFromEntries(bcfg, src)
		}
		return entriesEqual(mergeRunWindow(bcfg, runs, lo, hi, dropTombs).materialize(), want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHeapMergeEdgeCases pins the shapes quick.Check may not hit: no
// sources, all-empty sources, and the single-source fast path for a block
// run and for a skiplist.
func TestHeapMergeEdgeCases(t *testing.T) {
	if got := cursorMerge(nil, -1, nil, nil, true); len(got) != 0 {
		t.Fatalf("merge of no sources = %v, want empty", got)
	}
	if got := cursorMerge([][]entry{{}, {}, nil}, 1, nil, nil, false); len(got) != 0 {
		t.Fatalf("merge of empty sources = %v, want empty", got)
	}
	single := [][]entry{{
		{key: []byte("a"), value: []byte("1")},
		{key: []byte("b"), value: []byte("2")},
		{key: []byte("c"), tomb: true},
	}}
	for _, memAt := range []int{-1, 0} {
		if got := cursorMerge(single, memAt, nil, nil, false); !entriesEqual(got, single[0]) {
			t.Fatalf("single-source merge (memAt %d) = %v, want %v", memAt, got, single[0])
		}
		if got := cursorMerge(single, memAt, []byte("b"), []byte("c"), true); len(got) != 1 || string(got[0].value) != "2" {
			t.Fatalf("single-source window (memAt %d) = %v, want just b", memAt, got)
		}
	}
}
