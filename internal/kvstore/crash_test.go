package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Crash-recovery suites: a store is driven by a seeded workload mirrored
// into a plain map and killed at a chosen boundary between two file
// operations — killImage copies its directory there, which is exactly what
// SIGKILL at that instant would leave — and the image is opened. What comes
// back must equal the map of the writes acknowledged before the kill on
// every read shape (diffModel).

// killImage returns a copy of the store's directory as a kill at this
// instant would leave it. The log and the manifest stand still for the
// copy (their locks are held); run files may come and go meanwhile, but
// none of those the copied manifest names: a file is named only after it is
// complete and unlinked only after the edit that replaced it.
func killImage(t testing.TB, s *Store) string {
	p := s.per
	p.man.mu.Lock() // the order Sync takes them in
	defer p.man.mu.Unlock()
	p.wal.mu.Lock()
	defer p.wal.mu.Unlock()
	image := t.TempDir()
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		t.Error(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(p.dir, e.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue // renamed or unlinked since the listing
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(image, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
	return image
}

// crashOp is one step of the crash workload: a put, a delete, or (rows set)
// a MultiPut batch, which the log commits as one record.
type crashOp struct {
	key, val []byte
	del      bool
	rows     []KV
}

// crashOps draws n steps from the churn keyspace: puts of minVal..minVal+55
// byte values, a delete every 17th step, a 12-row batch every 41st.
func crashOps(rng *rand.Rand, n, minVal int) []crashOp {
	value := func() []byte {
		v := make([]byte, minVal+rng.Intn(56))
		rng.Read(v)
		return v
	}
	ops := make([]crashOp, 0, n)
	for i := 0; len(ops) < n; i++ {
		switch {
		case i%17 == 16:
			ops = append(ops, crashOp{key: churnKey(rng), del: true})
		case i%41 == 40:
			rows := make([]KV, 12)
			for j := range rows {
				rows[j] = KV{Key: churnKey(rng), Value: value()}
			}
			ops = append(ops, crashOp{rows: rows})
		default:
			ops = append(ops, crashOp{key: churnKey(rng), val: value()})
		}
	}
	return ops
}

func (op crashOp) apply(tbl *Table) {
	switch {
	case op.rows != nil:
		tbl.MultiPut(append([]KV(nil), op.rows...)) // MultiPut sorts in place
	case op.del:
		tbl.Delete(op.key)
	default:
		tbl.Put(op.key, op.val)
	}
}

func (op crashOp) mirror(model map[string][]byte) {
	switch {
	case op.rows != nil:
		for _, kv := range op.rows {
			model[string(kv.Key)] = kv.Value
		}
	case op.del:
		delete(model, string(op.key))
	default:
		model[string(op.key)] = op.val
	}
}

// landed reports whether the recovered table shows op's effect. Only asked
// about the one step that was in flight at the kill: its log record is
// either whole in the log or absent, and either outcome is correct.
func (op crashOp) landed(tbl *Table) bool {
	if op.rows != nil {
		last := op.rows[len(op.rows)-1] // later duplicates win, so the last row tells
		got, ok := tbl.Get(last.Key)
		return ok && bytes.Equal(got, last.Value)
	}
	got, ok := tbl.Get(op.key)
	if op.del {
		return !ok
	}
	return ok && bytes.Equal(got, op.val)
}

// crashGeometry is a store shape plus the workload that exercises it.
type crashGeometry struct {
	name     string
	opts     Options
	segBytes int64 // log segment size, shrunk so the workload rotates it
	ops      int
	minVal   int
}

func crashGeometries() []crashGeometry {
	splits := DefaultOptions()
	splits.MemtableFlushBytes = 16 << 10
	splits.RegionMaxBytes = 128 << 10
	merges := DefaultOptions()
	merges.MemtableFlushBytes = 320 << 10
	merges.RegionMaxBytes = 64 << 20
	merges.CompactFanIn = 2
	merges.CompactSubRanges = 8
	return []crashGeometry{
		{name: "splits", opts: splits, segBytes: 24 << 10, ops: 6000, minVal: 8},
		// One region whose merges pass 4 MiB and partition by key range.
		{name: "sub-compactions", opts: merges, segBytes: 1 << 20, ops: 8000, minVal: 1000},
	}
}

// openCrashStore opens dir with the geometry's options and segment size.
func openCrashStore(t *testing.T, dir string, g crashGeometry) (*Store, *Table) {
	t.Helper()
	s, err := OpenDir(dir, g.opts)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	s.per.wal.segBytes = g.segBytes
	return s, s.OpenTable("t")
}

// runToCrash applies ops until the store is killed at the nth time it
// passes point, and returns the kill's image of the directory, the model of
// the steps certainly acknowledged before the kill, and the step that was in
// flight (nil when the kill fell between two steps). The hook raises the
// flag before it takes the image, so a step that returned with the flag
// down is in it.
func runToCrash(t *testing.T, s *Store, tbl *Table, ops []crashOp, point string, nth int) (image string, model map[string][]byte, inflight *crashOp, next int) {
	t.Helper()
	var crashed atomic.Bool
	var seen atomic.Int64
	taken := make(chan string, 1) // the boundary may be a flusher's to reach
	s.per.hook = func(at string) {
		if at == point && seen.Add(1) == int64(nth) {
			crashed.Store(true)
			taken <- killImage(t, s)
		}
	}
	model = make(map[string][]byte)
	for i := range ops {
		ops[i].apply(tbl)
		if crashed.Load() {
			return <-taken, model, &ops[i], i + 1
		}
		ops[i].mirror(model)
	}
	s.Quiesce()
	if !crashed.Load() {
		t.Fatalf("workload never reached %s for the %d. time (%d)", point, nth, seen.Load())
	}
	return <-taken, model, nil, len(ops)
}

// checkDirectory asserts the reopened directory holds exactly the run files
// the store names and no temporaries.
func checkDirectory(t *testing.T, dir string, s *Store) {
	t.Helper()
	s.Quiesce() // flushes of the replayed tail write files too
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs := int64(0)
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".tmp"):
			t.Errorf("temporary %s survived the reopen", e.Name())
		case strings.HasPrefix(e.Name(), "run-"):
			runs++
		}
	}
	if named := s.PersistStats().RunFiles; runs != named {
		t.Errorf("%d run files on disk, the store names %d", runs, named)
	}
}

// TestCrashAtEveryBoundary kills the store between every pair of dependent
// file operations — log append ↔ apply, run-file write ↔ manifest append ↔
// run-set swap ↔ input unlink for flushes, compactions and splits, segment
// seal ↔ unlink — on two geometries (region splits; one region whose merges
// partition into ≥ 4 MiB sub-compactions), reopens, and compares with the
// model. It then keeps writing to the reopened store, and reopens once more
// after a clean Close: recovery has to leave a store that is itself
// durable.
func TestCrashAtEveryBoundary(t *testing.T) {
	boundaries := []struct {
		point string
		nths  []int
		merge bool // also on the sub-compaction geometry
	}{
		{"wal-appended", []int{1, 997, 4001}, true},
		{"segment-sealed", []int{1, 4}, true},
		{"segment-unpinned", []int{1, 3}, true},
		{"segment-unlink", []int{1, 3}, true},
		{"files-written:flush", []int{1, 9}, true},
		{"manifest-appended:flush", []int{2, 10}, true},
		{"runs-swapped:flush", []int{3}, false},
		{"files-written:compact", []int{1, 4}, true},
		{"manifest-appended:compact", []int{1, 5}, true},
		{"runs-swapped:compact", []int{2, 6}, true},
		{"input-unlink:compact", []int{1, 2, 7}, true},
		{"files-written:split", []int{1, 3}, false},
		{"manifest-appended:split", []int{1, 2}, false},
		{"runs-swapped:split", []int{1, 3}, false},
		{"input-unlink:split", []int{1, 2}, false},
	}
	for _, g := range crashGeometries() {
		g := g
		for _, b := range boundaries {
			if g.name != "splits" && !b.merge {
				continue
			}
			for _, nth := range b.nths {
				if g.name != "splits" && nth != b.nths[0] {
					continue // 8 MB of writes a run: one kill per boundary
				}
				b, nth := b, nth
				t.Run(fmt.Sprintf("%s/%s/%d", g.name, b.point, nth), func(t *testing.T) {
					t.Parallel()
					ops := crashOps(rand.New(rand.NewSource(4321)), g.ops, g.minVal)
					s, tbl := openCrashStore(t, t.TempDir(), g)
					dir, model, inflight, next := runToCrash(t, s, tbl, ops, b.point, nth)
					s.Close()

					s2, tbl2 := openCrashStore(t, dir, g)
					if inflight != nil && inflight.landed(tbl2) {
						inflight.mirror(model)
					}
					if err := diffModel(tbl2, model, g.minVal); err != nil {
						t.Fatalf("after the kill (step %d of %d in flight: %v): %v", next, len(ops), inflight != nil, err)
					}
					checkDirectory(t, dir, s2)

					rest := ops[next:]
					if len(rest) > 1500 {
						rest = rest[:1500]
					}
					for i := range rest {
						rest[i].apply(tbl2)
						rest[i].mirror(model)
					}
					if err := diffModel(tbl2, model, g.minVal); err != nil {
						t.Fatalf("writing on after recovery: %v", err)
					}
					if err := s2.Close(); err != nil {
						t.Fatalf("Close of the recovered store: %v", err)
					}
					s3, tbl3 := openCrashStore(t, dir, g)
					defer s3.Close()
					if err := diffModel(tbl3, model, g.minVal); err != nil {
						t.Fatalf("second reopen: %v", err)
					}
					checkDirectory(t, dir, s3)
				})
			}
		}
	}
}

// TestRecoveryReplaysOnlyTheTail is the point of the run files: after a
// workload that wrote many segments' worth of log, a restart loads run
// files and replays a bounded tail, not the history.
func TestRecoveryReplaysOnlyTheTail(t *testing.T) {
	g := crashGeometries()[0]
	dir := t.TempDir()
	s, tbl := openCrashStore(t, dir, g)
	// One row in a table nothing else writes to: its memtable would pin the
	// first segment forever if the retained-segment bound did not seal it.
	s.OpenTable("idle").Put([]byte("k"), []byte("v"))
	model := make(map[string][]byte)
	for _, op := range crashOps(rand.New(rand.NewSource(7)), g.ops, g.minVal) {
		op.apply(tbl)
		op.mirror(model)
	}
	s.Quiesce()
	before := s.PersistStats()
	st := s.Stats().Snapshot()
	dir = killImage(t, s)
	s.Close()
	if before.SegmentsDropped == 0 || before.ForcedSeals == 0 {
		t.Fatalf("workload dropped %d segments and forced %d seals; want both", before.SegmentsDropped, before.ForcedSeals)
	}
	if before.WALSegments > walMaxSealed+2 {
		t.Errorf("%d segments retained, the bound is %d sealed + the active one", before.WALSegments, walMaxSealed)
	}

	s2, tbl2 := openCrashStore(t, dir, g)
	defer s2.Close()
	rec := s2.Recovery()
	if rec.WALBytes != before.WALTailBytes {
		t.Errorf("replayed %d log bytes, the killed store retained %d", rec.WALBytes, before.WALTailBytes)
	}
	if rec.WALBytes*3 > before.WALBytesLogged {
		t.Errorf("replayed %d of %d logged bytes: not a tail", rec.WALBytes, before.WALBytesLogged)
	}
	if rec.RunFiles == 0 || int64(rec.RunFiles) != before.RunFiles {
		t.Errorf("loaded %d run files, the killed store named %d", rec.RunFiles, before.RunFiles)
	}
	if err := diffModel(tbl2, model, g.minVal); err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Table("idle").Get([]byte("k")); !ok || string(v) != "v" {
		t.Error("the row of the force-sealed idle table is lost")
	}
	// Recovery redoes no flush or compaction the killed store had done: it
	// flushes at most what the replayed tail fills.
	s2.Quiesce()
	if again := s2.Stats().Snapshot(); again.Flushes*2 > st.Flushes {
		t.Errorf("recovery flushed %d memtables, the whole run before it %d", again.Flushes, st.Flushes)
	}
}

// TestKillRacingRotationAndForcedSeals is the liveness rule under fire:
// several writers append while tiny segments rotate constantly, idle
// regions force seals, flushes unpin and drop segments — and the store is
// killed at a random instant. Every row a writer saw acknowledged by the
// live store must come back.
func TestKillRacingRotationAndForcedSeals(t *testing.T) {
	o := DefaultOptions()
	o.MemtableFlushBytes = 32 << 10
	o.RegionMaxBytes = 256 << 10
	const writers = 4
	for round := 0; round < 6; round++ {
		round := round
		t.Run(fmt.Sprint(round), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s, err := OpenDir(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			s.per.wal.segBytes = 8 << 10
			// Two tables: "idle" takes a row now and then, so its memtable
			// pins old segments until a forced seal releases them.
			busy, idle := s.OpenTable("busy"), s.OpenTable("idle")
			var crashed atomic.Bool
			acked := make([]atomic.Int64, writers) // per writer: rows 0..acked-1 are certain
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 40000 && !crashed.Load(); i++ {
						key := []byte(fmt.Sprintf("w%d/%06d", w, i))
						val := bytes.Repeat([]byte{byte(i)}, 40+i%50)
						switch {
						case i%97 == 0:
							idle.Put(key, val)
						case i%5 == 0:
							busy.MultiPut([]KV{{Key: key, Value: val}})
						default:
							busy.Put(key, val)
						}
						if crashed.Load() {
							return
						}
						acked[w].Store(int64(i + 1))
					}
				}()
			}
			// Kill after a seeded number of forced seals, whenever that is.
			rng := rand.New(rand.NewSource(int64(round)))
			target := int64(1 + rng.Intn(6))
			for s.PersistStats().ForcedSeals < target || s.PersistStats().SegmentsDropped == 0 {
				if writersDone(acked, 40000) {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
			crashed.Store(true)
			dir = killImage(t, s)
			wg.Wait()
			ps := s.PersistStats()
			s.Close()
			if ps.ForcedSeals == 0 || ps.SegmentsDropped == 0 {
				t.Fatalf("never forced a seal (%d) or dropped a segment (%d)", ps.ForcedSeals, ps.SegmentsDropped)
			}

			s2, err := OpenDir(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			busy, idle = s2.OpenTable("busy"), s2.OpenTable("idle")
			for w := 0; w < writers; w++ {
				n := int(acked[w].Load())
				for i := 0; i < n; i++ {
					key := []byte(fmt.Sprintf("w%d/%06d", w, i))
					tbl := busy
					if i%97 == 0 {
						tbl = idle
					}
					got, ok := tbl.Get(key)
					if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 40+i%50)) {
						t.Fatalf("writer %d row %d of %d acknowledged rows lost (found=%v)", w, i, n, ok)
					}
				}
			}
		})
	}
}

// TestInFlightWriterPinsItsSegment stages the interleaving the liveness
// rule exists for: a writer has appended its record but not applied it yet
// when everything else logged in that segment is flushed. The segment must
// stay: once the writer applies and returns, its row is acknowledged, sits
// in a memtable, and only the log has it.
func TestInFlightWriterPinsItsSegment(t *testing.T) {
	dir := t.TempDir()
	o := NoNetworkOptions()
	o.MemtableFlushBytes = 8 << 10
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	s.per.wal.segBytes = 4 << 10
	slow, busy := s.OpenTable("slow"), s.OpenTable("busy")
	fill := func(from int) {
		for i := from; i < from+600; i++ {
			busy.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 100))
		}
	}
	fill(0) // older segments, free to go
	staged := false
	s.per.hook = func(at string) {
		if at != "wal-appended" || staged {
			return
		}
		staged = true // the writes below pass this hook too
		fill(600)
		if err := s.Checkpoint(); err != nil { // flushes and drops all it may
			t.Error(err)
		}
	}
	slow.Put([]byte("in-flight"), []byte("row")) // logged, then the hook, then applied
	if dropped := s.PersistStats().SegmentsDropped; dropped == 0 {
		t.Fatal("staging dropped no segment")
	}
	dir = killImage(t, s)
	s.Close()

	s2, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.OpenTable("slow").Get([]byte("in-flight")); !ok || string(v) != "row" {
		t.Fatal("the row of a writer that was between append and apply when its segment's other rows were flushed is lost")
	}
}

func writersDone(acked []atomic.Int64, n int64) bool {
	for i := range acked {
		if acked[i].Load() < n {
			return false
		}
	}
	return true
}

// TestPersistenceErrorIsSticky: the first failed file operation is kept,
// counted, returned by Sync, Checkpoint and Close, and stops the store from
// naming new runs or dropping segments — while it keeps serving.
func TestPersistenceErrorIsSticky(t *testing.T) {
	dir := t.TempDir()
	o := NoNetworkOptions()
	o.MemtableFlushBytes = 8 << 10
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.OpenTable("t")
	for i := 0; i < 300; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 100))
	}
	s.Quiesce()
	if err := s.Sync(); err != nil {
		t.Fatalf("healthy Sync: %v", err)
	}
	healthy := s.PersistStats()
	if healthy.Errors != 0 || healthy.RunFiles == 0 {
		t.Fatalf("before the fault: %+v", healthy)
	}
	// Pull the log's file out from under the store: the next append fails.
	s.per.wal.f.Close()
	for i := 300; i < 900; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 100))
	}
	s.Quiesce()
	broken := s.PersistStats()
	if broken.Errors == 0 {
		t.Fatal("failed appends were not counted")
	}
	if broken.RunFiles != healthy.RunFiles || broken.SegmentsDropped != healthy.SegmentsDropped {
		t.Errorf("the store went on naming runs or dropping segments after the error: %+v → %+v", healthy, broken)
	}
	if got := len(tbl.Scan(nil, nil, nil, 0)); got != 900 {
		t.Errorf("the store serves %d rows from memory, want 900", got)
	}
	first := s.Sync()
	if first == nil {
		t.Fatal("Sync returned nil after a failed append")
	}
	if err := s.Checkpoint(); err == nil || err.Error() != first.Error() {
		t.Errorf("Checkpoint returned %v, want the first error %v", err, first)
	}
	if err := s.Close(); err == nil || err.Error() != first.Error() {
		t.Errorf("Close returned %v, want the first error %v", err, first)
	}
	// What was durable before the fault still is.
	s2, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Table("t").Scan(nil, nil, nil, 0)); got < 300 {
		t.Errorf("recovered %d rows, want at least the 300 written before the fault", got)
	}
}

// TestDropTableSurvivesRestart: a dropped table stays dropped, its files go,
// and rows written to a table of the same name afterwards are the only ones
// a restart brings back.
func TestDropTableSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	o := NoNetworkOptions()
	o.MemtableFlushBytes = 4 << 10
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.OpenTable("t")
	for i := 0; i < 400; i++ {
		tbl.Put([]byte(fmt.Sprintf("old%04d", i)), bytes.Repeat([]byte("v"), 50))
	}
	s.Quiesce()
	s.DropTable("t")
	if ps := s.PersistStats(); ps.RunFiles != 0 {
		t.Errorf("%d run files named after the only table was dropped", ps.RunFiles)
	}
	s.OpenTable("t").Put([]byte("new"), []byte("row"))
	dir = killImage(t, s)
	s.Close()

	s2, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rows := s2.Table("t").Scan(nil, nil, nil, 0)
	if len(rows) != 1 || string(rows[0].Key) != "new" {
		t.Fatalf("recovered %d rows (first %q), want only the row written after the drop", len(rows), rows)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(left) != 0 {
		t.Errorf("files of the dropped table survived: %v", left)
	}
}

// TestFailoverOnDurableStore: a promotion on a durable replicated store
// leaves the whole committed state in files named by the manifest — the
// promoted copy's memtables included — so a kill right after it loses
// nothing.
func TestFailoverOnDurableStore(t *testing.T) {
	dir := t.TempDir()
	o := NoNetworkOptions()
	o.Replicas = 3
	o.MemtableFlushBytes = 8 << 10
	o.RegionMaxBytes = 64 << 10
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	s.per.wal.segBytes = 16 << 10
	tbl := s.OpenTable("t")
	model := make(map[string][]byte)
	rng := rand.New(rand.NewSource(5))
	write := func(n int) {
		for i := 0; i < n; i++ {
			k, v := churnKey(rng), make([]byte, 30+rng.Intn(40))
			rng.Read(v)
			tbl.Put(k, v)
			model[string(k)] = v
		}
	}
	write(1500)
	for node := 0; node < s.Nodes(); node++ {
		s.KillNode(node)
		write(300)
		s.ReviveNode(node)
	}
	if s.Stats().Snapshot().Failovers == 0 {
		t.Fatal("no failover happened")
	}
	dir = killImage(t, s)
	s.Close()

	s2, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := diffModel(s2.Table("t"), model, 8); err != nil {
		t.Fatal(err)
	}
}

// The manifest only grows by appends; an open that finds it past
// manifestCompactBytes rewrites it as one put per live region, and the
// store behind it is unchanged.
func TestManifestCompactsWhenLarge(t *testing.T) {
	g := crashGeometries()[0]
	dir := t.TempDir()
	s, tbl := openCrashStore(t, dir, g)
	model := make(map[string][]byte)
	for _, op := range crashOps(rand.New(rand.NewSource(13)), 3000, g.minVal) {
		op.apply(tbl)
		op.mirror(model)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, manifestFileName)
	small, err := os.Stat(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// Age the manifest: the edits of a table that came and went, enough of
	// them to pass the threshold.
	var pad []byte
	for id := int64(1 << 40); len(pad) <= manifestCompactBytes; id++ {
		pad = appendEdit(pad, nil, []regionDesc{{table: "gone", id: id, refs: []runRef{}}})
		pad = appendEdit(pad, []int64{id}, nil)
	}
	f, err := os.OpenFile(manPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(pad); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, tbl2 := openCrashStore(t, dir, g)
	defer s2.Close()
	if err := diffModel(tbl2, model, g.minVal); err != nil {
		t.Fatal(err)
	}
	s2.Quiesce()
	if now, err := os.Stat(manPath); err != nil || now.Size() > 2*small.Size() {
		t.Fatalf("manifest is %d bytes after the compacting open (err %v); it was %d before it was aged", now.Size(), err, small.Size())
	}
	if s2.Table("gone") != nil {
		t.Error("a table dropped in the aged manifest came back")
	}
}

// What a Sync made safe against power loss stays on disk until the next
// Sync has made its replacement as safe: sealed segments are fsynced too
// (sealing alone does not), and run files and segments a Sync covered are
// kept, not unlinked, when a compaction or a flush replaces them. The
// manifest's log floor keeps a restart from replaying the kept segments —
// newer ones, with later versions of their rows, are already gone.
func TestSyncedStateIsHeldUntilTheNextSync(t *testing.T) {
	dir := t.TempDir()
	o := NoNetworkOptions()
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.per.wal.segBytes = 4 << 10
	tbl := s.OpenTable("t")
	model := make(map[string][]byte)
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			k, v := fmt.Sprintf("k%04d", i), bytes.Repeat([]byte{byte(i)}, 100)
			tbl.Put([]byte(k), v)
			model[k] = v
		}
	}
	fill(0, 50)
	s.CompactAll() // one run file, nothing of it in the log any more
	tbl.Put([]byte("doomed"), []byte("v1"))
	fill(50, 150)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	w := s.per.wal
	w.mu.Lock()
	if len(w.sealed) < 2 {
		t.Fatalf("%d sealed segments at the Sync, want several", len(w.sealed))
	}
	for _, seg := range append(w.sealed[:len(w.sealed):len(w.sealed)], w.active) {
		if seg.synced != seg.bytes {
			t.Errorf("segment %d: %d of %d bytes fsynced by Sync", seg.seq, seg.synced, seg.bytes)
		}
	}
	w.mu.Unlock()
	synced, _ := filepath.Glob(filepath.Join(dir, "*-*")) // run-* and wal-*
	if len(synced) < 3 {
		t.Fatalf("the Sync covered %v, want a run file and several segments", synced)
	}

	fill(150, 250) // rotates past the segment the Sync saw active
	tbl.Delete([]byte("doomed"))
	fill(250, 400) // all in segments no Sync sees
	s.CompactAll() // replaces the run file, covers every sealed segment, drops the tombstone
	ps := s.PersistStats()
	if ps.RunFiles != 1 || ps.WALSegments != 1 {
		t.Fatalf("after the major compaction the store names %d run files and retains %d segments, want 1 and 1", ps.RunFiles, ps.WALSegments)
	}
	for _, path := range synced {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s was fsynced by the last Sync and is gone before the next: %v", filepath.Base(path), err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "wal-*")); len(left) >= int(ps.SegmentsDropped) {
		t.Errorf("%d sealed segments on disk after %d drops: those no Sync covered should be unlinked at once", len(left), ps.SegmentsDropped)
	}

	// Killed now, the store comes back without the deleted row: the kept
	// segment that holds its put lies below the log floor.
	image := killImage(t, s)
	s2, err := OpenDir(image, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Table("t").Get([]byte("doomed")); ok {
		t.Error("a row deleted before the kill is back: a dropped segment was replayed")
	}
	if err := diffModel(s2.Table("t"), model, 100); err != nil {
		t.Error(err)
	}
	checkDirectory(t, image, s2)
	if left, _ := filepath.Glob(filepath.Join(image, "wal-*")); len(left) != 0 {
		t.Errorf("segments below the log floor survived the reopen: %v", left)
	}
	s2.Close()

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, path := range synced {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s is still there after the next Sync (%v)", filepath.Base(path), err)
		}
	}
}
