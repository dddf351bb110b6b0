package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// churnKey draws from a shared-prefix keyspace (40 groups × 5000 ids) small
// enough that a few thousand writes overwrite and re-delete earlier keys.
func churnKey(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("traj/%03d/%08d", rng.Intn(40), rng.Intn(5000)))
}

// churnWrites applies n puts of minVal..minVal+55 byte values (and a delete
// every 17th step) to tbl, mirroring each into model when it is non-nil.
func churnWrites(tbl *Table, model map[string][]byte, rng *rand.Rand, n, minVal int) {
	for i := 0; i < n; i++ {
		k := churnKey(rng)
		v := make([]byte, minVal+rng.Intn(56))
		rng.Read(v)
		tbl.Put(k, v)
		if model != nil {
			model[string(k)] = v
		}
		if i%17 == 0 {
			d := churnKey(rng)
			tbl.Delete(d)
			delete(model, string(d))
		}
	}
}

// churnStore returns a quiesced store after 6000 churn writes under small
// flush and split thresholds: several regions, each holding several runs.
func churnStore(t *testing.T) (*Store, *Table) {
	t.Helper()
	o := DefaultOptions()
	o.MemtableFlushBytes = 16 << 10
	o.RegionMaxBytes = 256 << 10
	s := Open(o)
	t.Cleanup(func() { s.Close() })
	tbl, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	churnWrites(tbl, nil, rand.New(rand.NewSource(1234)), 6000, 8)
	s.Quiesce()
	return s, tbl
}

// modelScan is Scan/ScanRanges evaluated on the model: the live rows of the
// sorted, non-overlapping ranges that pass filter, in key order, cut at
// limit.
func modelScan(model map[string][]byte, ranges []KeyRange, filter Filter, limit int) []KV {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []KV
	for _, kr := range ranges {
		for _, k := range keys {
			if kr.Start != nil && k < string(kr.Start) || kr.End != nil && k >= string(kr.End) {
				continue
			}
			if filter != nil && !filter.Accept([]byte(k), model[k]) {
				continue
			}
			out = append(out, KV{Key: []byte(k), Value: model[k]})
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestStoreMatchesSortedMapModel pins the store against truth rather than
// against another implementation: a seeded mix of puts, overwrites and
// deletes is mirrored into a plain map, and after every phase — background
// flushes and tiered compactions, a major compaction, fresh memtable rows
// over compacted runs — Get, Scan and ScanRanges (with and without limit
// and filter) must equal the map's answer byte for byte. The first geometry
// splits regions; the second keeps one region large enough that its merges
// partition into parallel key-range sub-compactions.
func TestStoreMatchesSortedMapModel(t *testing.T) {
	t.Run("splits", func(t *testing.T) {
		o := DefaultOptions()
		o.MemtableFlushBytes = 16 << 10
		o.RegionMaxBytes = 128 << 10
		st, s, tbl := storeVersusModel(t, o, 6000, 8)
		if st.RegionSplits == 0 {
			t.Fatal("no region split")
		}
		// Both counters are pure functions of the write sequence: at this
		// scale the tiered policy rewrites exactly 201866 bytes for 268915
		// flushed. Pin the ratio with 5% headroom.
		const pinnedWriteAmp = 201866.0 / 268915
		if amp := float64(st.BytesCompacted) / float64(st.BytesFlushed); amp > 1.05*pinnedWriteAmp {
			t.Fatalf("write amplification %.3f (%d compacted / %d flushed) exceeds the pinned %.3f + 5%%",
				amp, st.BytesCompacted, st.BytesFlushed, pinnedWriteAmp)
		}
		// Fully compacted and with memtables empty, ApproxSize is the raw
		// key+value bytes of every run; prefix-compressed blocks plus index
		// and filter must undercut it.
		if raw, res := int64(tbl.ApproxSize()), s.ResidentRunBytes(); res == 0 || float64(res) > 0.9*float64(raw) {
			t.Fatalf("runs resident in %d bytes for %d raw — want ≤ 0.9×", res, raw)
		}
	})
	t.Run("sub-compactions", func(t *testing.T) {
		o := DefaultOptions()
		o.MemtableFlushBytes = 320 << 10
		o.RegionMaxBytes = 64 << 20
		o.CompactFanIn = 2
		o.CompactSubRanges = 8
		if st, _, _ := storeVersusModel(t, o, 8000, 1000); st.SubCompactions == 0 {
			t.Fatal("no merge reached the 4 MiB partitioning threshold")
		}
	})
}

// diffModel compares every read shape of tbl — Get, Scan and ScanRanges,
// with and without limit and filter — with the model's answer byte for
// byte, and describes the first difference. minVal is the shortest value
// the workload writes (the filter cuts the value lengths in two).
func diffModel(tbl *Table, model map[string][]byte, minVal int) error {
	filter := FilterFunc(func(_, v []byte) bool { return len(v) > minVal+22 })
	var ranges []KeyRange
	for i := 0; i < 40; i += 3 {
		ranges = append(ranges, KeyRange{
			Start: []byte(fmt.Sprintf("traj/%03d/", i)),
			End:   []byte(fmt.Sprintf("traj/%03d/%08d", i, 4000)),
		})
	}
	same := func(what string, got, want []KV) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d rows, model has %d", what, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				return fmt.Errorf("%s: row %d is %q, model has %q", what, i, got[i].Key, want[i].Key)
			}
		}
		return nil
	}
	all := []KeyRange{{}}
	if err := same("full scan", tbl.Scan(nil, nil, nil, 0), modelScan(model, all, nil, 0)); err != nil {
		return err
	}
	if err := same("filtered scan", tbl.Scan(nil, nil, filter, 0), modelScan(model, all, filter, 0)); err != nil {
		return err
	}
	for i := 0; i < 40; i += 7 {
		w := []KeyRange{{Start: []byte(fmt.Sprintf("traj/%03d/", i)), End: []byte(fmt.Sprintf("traj/%03d/%08d", i+2, 2500))}}
		if err := same("window", tbl.Scan(w[0].Start, w[0].End, nil, 0), modelScan(model, w, nil, 0)); err != nil {
			return err
		}
		if err := same("limited window", tbl.Scan(w[0].Start, nil, nil, 25), modelScan(model, []KeyRange{{Start: w[0].Start}}, nil, 25)); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		what   string
		filter Filter
		limit  int
	}{{"ranges", nil, 0}, {"ranges limit", nil, 90}, {"ranges filter", filter, 0}, {"ranges filter+limit", filter, 200}} {
		if err := same(c.what, tbl.ScanRanges(ranges, c.filter, c.limit), modelScan(model, ranges, c.filter, c.limit)); err != nil {
			return err
		}
	}
	get := func(k []byte) error {
		got, ok := tbl.Get(k)
		want, wok := model[string(k)]
		if ok != wok || !bytes.Equal(got, want) {
			return fmt.Errorf("get %q = (%x, %v), model has (%x, %v)", k, got, ok, want, wok)
		}
		return nil
	}
	for k := range model {
		if err := get([]byte(k)); err != nil {
			return err
		}
	}
	probe := rand.New(rand.NewSource(99)) // mostly never-written or deleted keys
	for i := 0; i < 1500; i++ {
		if err := get(churnKey(probe)); err != nil {
			return err
		}
	}
	return nil
}

// storeVersusModel runs the phases of TestStoreMatchesSortedMapModel on a
// store opened with o, writing n rows of minVal+ byte values first. It
// returns the counters as of the quiesced ingest and the store, which it
// leaves fully compacted.
func storeVersusModel(t *testing.T, o Options, n, minVal int) (Snapshot, *Store, *Table) {
	t.Helper()
	s := Open(o)
	t.Cleanup(func() { s.Close() })
	tbl, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	rng := rand.New(rand.NewSource(4321))

	check := func(phase string) {
		t.Helper()
		if err := diffModel(tbl, model, minVal); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}

	churnWrites(tbl, model, rng, n, minVal)
	check("ingest, flusher racing")
	s.Quiesce()
	check("quiesced")
	st := s.Stats().Snapshot()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("workload too small to exercise the LSM: %d flushes, %d compactions", st.Flushes, st.Compactions)
	}
	s.CompactAll()
	check("major compaction")
	churnWrites(tbl, model, rng, n/4, minVal)
	check("memtable rows and tombstones over compacted runs")
	s.CompactAll()
	check("second major compaction")
	return st, s, tbl
}
