package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Hostile bytes in the two file formats recovery trusts: run files and the
// manifest. The suites mirror the WAL, ship-frame and fence ones — every
// prefix, every bit — plus a fuzz target each.

// fencedTestConfig builds runs with key-derived fences, so the fence blob
// section of a run file is populated.
func fencedTestConfig(blockBytes int) *blockConfig {
	return &blockConfig{blockBytes: blockBytes, bloomBits: 10, fence: func(key, _ []byte) (Fence, bool) {
		t := int64(len(key))
		return Fence{MinT: t, MaxT: t + 1, MaxX: 1, MaxY: 1}, true
	}}
}

// testRunImage encodes a run of n entries (tombstones included) and returns
// it with its file image.
func testRunImage(t testing.TB, cfg *blockConfig, n int) (*blockRun, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	entries := make([]entry, n)
	for i := range entries {
		v := make([]byte, rng.Intn(40))
		rng.Read(v)
		entries[i] = entry{key: []byte(fmt.Sprintf("key/%06d", i*3)), value: v, tomb: i%11 == 10}
		if entries[i].tomb {
			entries[i].value = nil
		}
	}
	run := newRunFromEntries(cfg, entries)
	var buf bytes.Buffer
	if _, err := writeRunFile(&buf, run); err != nil {
		t.Fatal(err)
	}
	return run, buf.Bytes()
}

func TestRunFileRoundTrip(t *testing.T) {
	for _, cfg := range []*blockConfig{
		fencedTestConfig(512),
		{blockBytes: 4 << 10, bloomBits: 10},
		{blockBytes: 512, bloomBits: -1}, // no filter
	} {
		for _, n := range []int{0, 1, 17, 900} {
			run, image := testRunImage(t, cfg, n)
			got, err := decodeRunFile(cfg, image)
			if err != nil {
				t.Fatalf("%d entries: %v", n, err)
			}
			if got.count != run.count || got.rawBytes != run.rawBytes || got.encBytes != run.encBytes ||
				len(got.blocks) != len(run.blocks) || (got.filter == nil) != (run.filter == nil) ||
				!bytes.Equal(got.fenceBlob, run.fenceBlob) || got.runFence != run.runFence {
				t.Fatalf("%d entries: decoded run differs: %+v vs %+v", n, got, run)
			}
			if !reflect.DeepEqual(got.materialize(), run.materialize()) {
				t.Fatalf("%d entries: decoded rows differ", n)
			}
			for i := 0; i < n; i += 7 {
				key := []byte(fmt.Sprintf("key/%06d", i*3))
				gv, gt, gf, _ := got.get(key)
				wv, wt, wf, _ := run.get(key)
				if !bytes.Equal(gv, wv) || gt != wt || gf != wf {
					t.Fatalf("get %q differs after the round trip", key)
				}
			}
		}
	}
}

// Every proper prefix of a run file is rejected with the typed error.
func TestRunFileEveryPrefixTruncation(t *testing.T) {
	cfg := fencedTestConfig(512)
	_, image := testRunImage(t, cfg, 120)
	for cut := 0; cut < len(image); cut++ {
		if _, err := decodeRunFile(cfg, image[:cut]); !errors.Is(err, ErrRunFileCorrupt) {
			t.Fatalf("truncated at %d/%d: err = %v, want ErrRunFileCorrupt", cut, len(image), err)
		}
	}
}

// Every single-bit flip anywhere in a run file is rejected: the trailing
// checksum covers the whole file.
func TestRunFileEveryBitFlip(t *testing.T) {
	cfg := fencedTestConfig(512)
	_, image := testRunImage(t, cfg, 60)
	for off := range image {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), image...)
			mut[off] ^= 1 << bit
			if _, err := decodeRunFile(cfg, mut); !errors.Is(err, ErrRunFileCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrRunFileCorrupt", off, bit, err)
			}
		}
	}
}

// resealRunFile recomputes the trailing checksum, so a mutated image gets
// past it and reaches the parser.
func resealRunFile(image []byte) []byte {
	if len(image) < 4 {
		return image
	}
	out := append([]byte(nil), image...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], crcTable))
	return out
}

// A run file whose checksum vouches for damaged contents — every bit of
// the meta section flipped and resealed — either fails to parse or yields a
// run whose structure is consistent; a flipped length never drives an
// allocation past the file.
func TestRunFileResealedMetaFlips(t *testing.T) {
	cfg := fencedTestConfig(512)
	_, image := testRunImage(t, cfg, 60)
	metaOff := int(binary.LittleEndian.Uint64(image[len(image)-12:]))
	for off := metaOff; off < len(image)-4; off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), image...)
			mut[off] ^= 1 << bit
			checkDecodedRun(t, cfg, resealRunFile(mut))
		}
	}
}

// checkDecodedRun decodes an arbitrary image and, if it is accepted, checks
// what the readers rely on: blocks and index agree, first keys ascend.
func checkDecodedRun(t testing.TB, cfg *blockConfig, image []byte) {
	run, err := decodeRunFile(cfg, image)
	if err != nil {
		if !errors.Is(err, ErrRunFileCorrupt) {
			t.Fatalf("untyped error %v", err)
		}
		return
	}
	if len(run.blocks) != len(run.index) {
		t.Fatalf("%d blocks, %d index rows", len(run.blocks), len(run.index))
	}
	total, enc := 0, 0
	for i := range run.index {
		total += run.index[i].count
		enc += len(run.blocks[i])
		if i > 0 && bytes.Compare(run.index[i-1].firstKey, run.index[i].firstKey) >= 0 {
			t.Fatalf("index row %d out of order", i)
		}
	}
	if total != run.count || enc != run.encBytes || enc > len(image) {
		t.Fatalf("accepted an inconsistent run: %d entries indexed of %d, %d encoded bytes of %d in a %d-byte file",
			total, run.count, enc, run.encBytes, len(image))
	}
	if run.filter != nil && len(run.filter.words)*8 > len(image) {
		t.Fatalf("bloom filter of %d words from a %d-byte file", len(run.filter.words), len(image))
	}
}

func FuzzDecodeRunFile(f *testing.F) {
	for _, cfg := range []*blockConfig{fencedTestConfig(512), {blockBytes: 4 << 10, bloomBits: 10}} {
		for _, n := range []int{0, 3, 200} {
			_, image := testRunImage(f, cfg, n)
			f.Add(image, false)
			f.Add(image, true)
			f.Add(image[:len(image)/2], true)
		}
	}
	f.Add([]byte{}, true)
	cfg := fencedTestConfig(512)
	f.Fuzz(func(t *testing.T, image []byte, reseal bool) {
		if reseal {
			image = resealRunFile(image)
		}
		checkDecodedRun(t, cfg, image)
	})
}

// ------------------------------------------------------------- manifest ---

// testManifest builds a manifest of edits shaped like a store's life — a
// table, flushes, a compaction, a split, a second table, a drop — and
// returns the image, the offset each edit ends at, and the live state after
// each edit (states[0] is the empty store).
func testManifest(t testing.TB) (image []byte, ends []int, states []map[int64]*regionDesc) {
	t.Helper()
	reg := func(table string, id int64, start, end string, node int, files ...uint64) regionDesc {
		d := regionDesc{table: table, id: id, node: node, refs: []runRef{}}
		if start != "" {
			d.start = []byte(start)
		}
		if end != "" {
			d.end = []byte(end)
		}
		for i, f := range files {
			d.refs = append(d.refs, runRef{file: f, group: uint64(i / 2)})
		}
		return d
	}
	edits := []struct {
		drops []int64
		puts  []regionDesc
	}{
		{nil, []regionDesc{reg("primary", 1, "", "", 0)}},
		{nil, []regionDesc{reg("primary", 1, "", "", 0, 1)}},
		{nil, []regionDesc{reg("primary", 1, "", "", 0, 1, 2)}},
		{nil, []regionDesc{reg("primary", 1, "", "", 0, 3)}},
		{[]int64{1}, []regionDesc{reg("primary", 2, "", "m", 0, 4), reg("primary", 3, "m", "", 1, 5)}},
		{nil, []regionDesc{reg("meta", 4, "", "", 2)}},
		{nil, []regionDesc{reg("primary", 3, "m", "", 3, 5, 6, 7, 8)}},
		{[]int64{4}, nil},
	}
	image = binary.LittleEndian.AppendUint32(nil, manifestMagic)
	state := map[int64]*regionDesc{}
	snapshot := func() map[int64]*regionDesc {
		out := make(map[int64]*regionDesc, len(state))
		for id, d := range state {
			out[id] = d
		}
		return out
	}
	states = append(states, snapshot())
	for _, e := range edits {
		image = appendEdit(image, e.drops, e.puts)
		ends = append(ends, len(image))
		for _, id := range e.drops {
			delete(state, id)
		}
		for i := range e.puts {
			state[e.puts[i].id] = &e.puts[i]
		}
		states = append(states, snapshot())
	}
	return image, ends, states
}

// sameRegions compares a replayed state with an expected one.
func sameRegions(got, want map[int64]*regionDesc) bool {
	if len(got) != len(want) {
		return false
	}
	for id, w := range want {
		g := got[id]
		if g == nil || g.table != w.table || g.node != w.node || !bytes.Equal(g.start, w.start) || !bytes.Equal(g.end, w.end) ||
			(g.start == nil) != (w.start == nil) || (g.end == nil) != (w.end == nil) || !reflect.DeepEqual(g.refs, w.refs) {
			return false
		}
	}
	return true
}

func TestManifestReplay(t *testing.T) {
	image, _, states := testManifest(t)
	got, _, _, err := replayManifest(image)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRegions(got, states[len(states)-1]) {
		t.Fatalf("replayed state differs: %+v", got)
	}
	if _, err := tableLayouts(got); err != nil {
		t.Fatalf("final layout rejected: %v", err)
	}
}

// A manifest cut at any byte — the crash mid-append — replays, without
// error, to the state after its last complete edit.
func TestManifestEveryPrefixTruncation(t *testing.T) {
	image, ends, states := testManifest(t)
	for cut := 4; cut <= len(image); cut++ {
		complete := 0
		for _, end := range ends {
			if end <= cut {
				complete++
			}
		}
		got, _, valid, err := replayManifest(image[:cut])
		if err != nil {
			t.Fatalf("cut at %d/%d: %v, want the torn tail ignored", cut, len(image), err)
		}
		if !sameRegions(got, states[complete]) {
			t.Fatalf("cut at %d/%d: state is not the one after edit %d", cut, len(image), complete)
		}
		if want := append([]int{4}, ends...)[complete]; valid != want {
			t.Fatalf("cut at %d/%d: valid prefix %d, want %d", cut, len(image), valid, want)
		}
	}
	if _, _, _, err := replayManifest(image[:3]); !errors.Is(err, ErrManifestCorrupt) {
		t.Errorf("a manifest shorter than its magic: %v, want ErrManifestCorrupt", err)
	}
}

// A single flipped bit anywhere in the manifest either fails the open with
// the typed error or — in the last edit, or in a length that now points
// past the end, both indistinguishable from a torn append — leaves the
// state after some complete prefix of the edits. It never panics and never
// yields a state that was not once the store's.
func TestManifestEveryBitFlip(t *testing.T) {
	image, _, states := testManifest(t)
	for off := range image {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), image...)
			mut[off] ^= 1 << bit
			got, _, _, err := replayManifest(mut)
			if err != nil {
				if !errors.Is(err, ErrManifestCorrupt) {
					t.Fatalf("flip byte %d bit %d: untyped error %v", off, bit, err)
				}
				continue
			}
			known := false
			for _, st := range states {
				known = known || sameRegions(got, st)
			}
			if !known {
				t.Fatalf("flip byte %d bit %d: accepted a state the store never had: %+v", off, bit, got)
			}
		}
	}
}

// A damaged length field that points past the end of the file looks like an
// append that stopped short — except that whole edits follow it. Ignoring
// the tail would silently undo them (their files deleted as unnamed, the
// log segments they covered long gone), so the manifest is refused.
func TestManifestDamagedLengthIsNotATornTail(t *testing.T) {
	image, ends, _ := testManifest(t)
	starts := append([]int{4}, ends[:len(ends)-1]...)
	for i, start := range starts[:len(starts)-1] { // every edit but the last
		for _, bit := range []int{20, 27, 31} {
			mut := append([]byte(nil), image...)
			mut[start+4+bit/8] ^= 1 << (bit % 8)
			if _, _, _, err := replayManifest(mut); !errors.Is(err, ErrManifestCorrupt) {
				t.Fatalf("edit %d of %d, length bit %d flipped: %v, want ErrManifestCorrupt", i, len(starts), bit, err)
			}
		}
	}
	// The same damage in the last edit is a torn tail: nothing follows it.
	mut := append([]byte(nil), image...)
	mut[starts[len(starts)-1]+4+3] ^= 0x80
	if _, _, valid, err := replayManifest(mut); err != nil || valid != starts[len(starts)-1] {
		t.Fatalf("last edit's length damaged: valid %d, err %v; want the tail cut at %d", valid, err, starts[len(starts)-1])
	}
	// A log-floor edit is an edit like any other.
	withFloor := appendFloorEdit(append([]byte(nil), image...), 7)
	if _, floor, valid, err := replayManifest(withFloor); err != nil || floor != 7 || valid != len(withFloor) {
		t.Fatalf("floor edit: floor %d, valid %d of %d, err %v", floor, valid, len(withFloor), err)
	}
	withFloor[ends[0]+4+3] ^= 0x80
	if _, _, _, err := replayManifest(withFloor); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("damaged length ahead of a floor edit: %v, want ErrManifestCorrupt", err)
	}
}

func FuzzReplayManifest(f *testing.F) {
	image, ends, _ := testManifest(f)
	f.Add(image)
	f.Add(image[:ends[3]+5])
	f.Add(appendFloorEdit(append([]byte(nil), image[:ends[2]]...), 9))
	f.Add(image[:4])
	f.Add([]byte{})
	// A checksummed edit with hostile contents: huge counts and lengths.
	hostile := binary.LittleEndian.AppendUint32(nil, manifestMagic)
	payload := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, editPutRegion, 0xff, 0xff, 0xff, 0x7f}
	hostile = binary.LittleEndian.AppendUint32(hostile, crc32.Checksum(payload, crcTable))
	hostile = binary.LittleEndian.AppendUint32(hostile, uint32(len(payload)))
	f.Add(append(hostile, payload...))
	f.Fuzz(func(t *testing.T, data []byte) {
		regions, _, valid, err := replayManifest(data)
		if err != nil {
			if !errors.Is(err, ErrManifestCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if valid > len(data) {
			t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
		}
		refs := 0
		for _, d := range regions {
			refs += len(d.refs)
		}
		if refs > len(data) {
			t.Fatalf("%d run references from %d bytes", refs, len(data))
		}
		if _, err := tableLayouts(regions); err != nil && !errors.Is(err, ErrManifestCorrupt) {
			t.Fatalf("untyped layout error %v", err)
		}
	})
}

// --------------------------------------------------------------- OpenDir ---

// durableFixture writes a store with several regions and runs, checkpoints
// it (so the log holds nothing) and closes it; it returns the model.
func durableFixture(t *testing.T, dir string, o Options) map[string][]byte {
	t.Helper()
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	churnWrites(s.OpenTable("t"), model, rand.New(rand.NewSource(3)), 3000, 8)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return model
}

// A run file the manifest names that is missing, truncated or damaged fails
// OpenDir with the typed error — never a panic, never a silently shorter
// store.
func TestOpenDirRejectsDamagedRunFile(t *testing.T) {
	o := NoNetworkOptions()
	o.MemtableFlushBytes = 16 << 10
	o.RegionMaxBytes = 128 << 10
	damages := map[string]func(path string, data []byte) error{
		"missing":   func(path string, _ []byte) error { return os.Remove(path) },
		"empty":     func(path string, _ []byte) error { return os.WriteFile(path, nil, 0o644) },
		"truncated": func(path string, data []byte) error { return os.WriteFile(path, data[:len(data)*2/3], 0o644) },
		"bit flip": func(path string, data []byte) error {
			data[len(data)/2] ^= 0x10
			return os.WriteFile(path, data, 0o644)
		},
		"extended": func(path string, data []byte) error { return os.WriteFile(path, append(data, 0), 0o644) },
	}
	for name, damage := range damages {
		name, damage := name, damage
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			durableFixture(t, dir, o)
			files, _ := filepath.Glob(filepath.Join(dir, "run-*.run"))
			if len(files) < 2 {
				t.Fatalf("fixture left %d run files", len(files))
			}
			victim := files[len(files)/2]
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := damage(victim, data); err != nil {
				t.Fatal(err)
			}
			if s, err := OpenDir(dir, o); !errors.Is(err, ErrRunFileCorrupt) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("OpenDir with a %s run file: %v, want ErrRunFileCorrupt", name, err)
			}
		})
	}
}

// A manifest whose last edit is torn at any byte opens, and loses nothing:
// the edit never took effect, so its memtable's segment was never dropped
// and the log still has the rows.
func TestOpenDirIgnoresTornManifestTail(t *testing.T) {
	g := crashGeometries()[0]
	ops := crashOps(rand.New(rand.NewSource(11)), g.ops, g.minVal)
	s, tbl := openCrashStore(t, t.TempDir(), g)
	dir, model, inflight, _ := runToCrash(t, s, tbl, ops, "manifest-appended:flush", 12)
	s.Close()

	image, err := os.ReadFile(filepath.Join(dir, manifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	lastEdit := 4
	for p := 4; p+8 <= len(image); {
		lastEdit = p
		p += 8 + int(binary.LittleEndian.Uint32(image[p+4:]))
	}
	for cut := lastEdit; cut < len(image); cut++ {
		torn := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == manifestFileName {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(torn, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s2, tbl2 := openCrashStore(t, torn, g)
		want := model
		if inflight != nil && inflight.landed(tbl2) {
			want = make(map[string][]byte, len(model))
			for k, v := range model {
				want[k] = v
			}
			inflight.mirror(want)
		}
		err = diffModel(tbl2, want, g.minVal)
		s2.Close()
		if err != nil {
			t.Fatalf("manifest torn at %d (last edit %d..%d): %v", cut, lastEdit, len(image), err)
		}
		if cut%16 != 0 {
			continue
		}
		// The open cut the torn tail off, so the edits of the flushes that
		// closing-and-reopening below depends on are not hidden behind it.
		s3, tbl3 := openCrashStore(t, torn, g)
		grown := make(map[string][]byte, len(want))
		for k, v := range want {
			grown[k] = v
		}
		for _, op := range crashOps(rand.New(rand.NewSource(int64(cut))), 1200, g.minVal) {
			op.apply(tbl3)
			op.mirror(grown)
		}
		if err := s3.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s3.Close()
		s4, tbl4 := openCrashStore(t, torn, g)
		err = diffModel(tbl4, grown, g.minVal)
		s4.Close()
		if err != nil {
			t.Fatalf("manifest torn at %d, written on and reopened: %v", cut, err)
		}
	}
}
