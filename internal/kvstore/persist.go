package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Persistence of a durable store (OpenDir): immutable run files, the
// manifest that names the live ones, and the segmented write-ahead log.
//
// Every change of a run set goes through one step, region.install (or, for
// changes of a table's regions, Table.installRegions), which for a leader
// region of a durable store does, in this order:
//
//  1. write a file for each run of the new set that has none (temporary
//     name, then rename; written and closed),
//  2. append one manifest edit naming the new set (one write(2)),
//  3. swap the in-memory run set,
//  4. unlink the files of the runs that left the set,
//
// and then unpins the memtable the new run covers and drops the log
// segments nothing pins any more (one more manifest edit moves the log floor
// past each). A crash between any two steps leaves either files no manifest
// edit names (deleted at the next open) or an edit whose files all exist;
// the log still holds every row not yet in a named file. Follower regions
// and in-memory stores have no persister and only swap.
//
// Flush policy, the same for all three kinds of file: written and handed to
// the OS before anything that depends on them — safe against a killed
// process on acknowledgement — and fsynced only by Sync, Checkpoint and
// Close, which is when the state becomes safe against power loss. What a
// Sync fsynced is not unlinked (step 4, dropped segments) before the next
// Sync has fsynced what replaces it: see held.

const legacySnapshotFile = "snapshot.db"

// persister owns a durable store's files.
type persister struct {
	dir   string
	stats *Stats
	wal   *wal
	man   *manifest

	// hook, when set (tests only), runs at each named boundary between two
	// file operations; a crash test takes its image of the directory there.
	hook func(point string)

	errMu    sync.Mutex
	firstErr error
	errCount atomic.Int64

	nextFile     atomic.Uint64
	runFiles     atomic.Int64
	runFileBytes atomic.Int64
	forcedSeals  atomic.Int64
	// relief is set when a segment was sealed with more than walMaxSealed
	// already waiting; the writer that finds it runs Store.relieveLog.
	relief atomic.Bool

	// syncMu guards the two sets Sync works through. unsynced holds the
	// named run files no Sync of this process has fsynced yet (those loaded
	// at open included: the process that wrote them may have been killed
	// before it synced). held holds the numbers of run files that left the
	// run set after a Sync had fsynced them: they are the state a power loss
	// falls back to until the next Sync has fsynced their replacements and
	// the manifest, and only then unlinks them.
	syncMu   sync.Mutex
	unsynced map[uint64]struct{}
	held     []uint64
}

func (p *persister) at(point string) {
	if p.hook != nil {
		p.hook(point)
	}
}

// io runs one file operation and keeps its error.
func (p *persister) io(op func() error) error {
	err := op()
	if err != nil {
		p.fail(err)
	}
	return err
}

// fail records a persistence error. The first one is sticky: after it no
// run is installed on disk and no segment dropped, the store keeps serving
// from memory, and Sync, Checkpoint and Close return it.
func (p *persister) fail(err error) {
	p.errCount.Add(1)
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

func (p *persister) err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

func (p *persister) runPath(file uint64) string {
	return filepath.Join(p.dir, fmt.Sprintf("run-%08d.run", file))
}

// writeRun gives br a file: temporary name, rename, closed — but not synced.
func (p *persister) writeRun(br *blockRun) error {
	file := p.nextFile.Add(1)
	return p.io(func() error {
		tmp := p.runPath(file) + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		n, err := writeRunFile(f, br)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, p.runPath(file))
		}
		if err != nil {
			os.Remove(tmp)
			return err
		}
		br.file, br.fileBytes = file, n
		p.named(br)
		return nil
	})
}

// named accounts for a run file that was just written or loaded.
func (p *persister) named(br *blockRun) {
	p.runFiles.Add(1)
	p.runFileBytes.Add(br.fileBytes)
	p.syncMu.Lock()
	if p.unsynced == nil {
		p.unsynced = make(map[uint64]struct{})
	}
	p.unsynced[br.file] = struct{}{}
	p.syncMu.Unlock()
}

// commit makes one change of the run set durable — steps 1 and 2 — and
// reports whether it did: after a persistence error it no longer does, and
// the caller goes on in memory without retiring or unpinning anything.
// kind names the change at the crash-test boundaries.
func (p *persister) commit(kind string, drops []int64, puts []*region, runs [][]*blockRun) bool {
	if p.err() != nil {
		return false
	}
	descs := make([]regionDesc, len(puts))
	for i, r := range puts {
		for _, br := range runs[i] {
			if br.file == 0 {
				if p.writeRun(br) != nil {
					return false
				}
			}
		}
		descs[i] = describeRegion(r, runs[i])
	}
	p.at("files-written:" + kind)
	if p.io(func() error { return p.man.append(drops, descs) }) != nil {
		return false
	}
	p.at("manifest-appended:" + kind)
	return true
}

// retire unlinks the files of runs that left the run set (step 4): those
// of old that are not in keep. A file a Sync has fsynced is held instead,
// for the next Sync to unlink.
func (p *persister) retire(kind string, old, keep []*blockRun) {
	for _, br := range old {
		if br.file == 0 || containsRun(keep, br) {
			continue
		}
		p.at("input-unlink:" + kind)
		file, n := br.file, br.fileBytes
		p.syncMu.Lock()
		_, fresh := p.unsynced[file]
		delete(p.unsynced, file)
		if !fresh {
			p.held = append(p.held, file)
		}
		p.syncMu.Unlock()
		if fresh && p.io(func() error { return os.Remove(p.runPath(file)) }) != nil {
			return
		}
		br.file, br.fileBytes = 0, 0
		p.runFiles.Add(-1)
		p.runFileBytes.Add(-n)
	}
}

func containsRun(runs []*blockRun, br *blockRun) bool {
	for _, r := range runs {
		if r == br {
			return true
		}
	}
	return false
}

// dropCovered drops the sealed log segments nothing pins any more, oldest
// first: the manifest's log floor moves past the segment, then the file
// goes. Called after every unpin.
func (p *persister) dropCovered() {
	for p.err() == nil {
		seg := p.wal.oldestUnpinned()
		if seg == nil {
			return
		}
		p.at("segment-unpinned")
		if p.io(func() error { return p.man.appendFloor(seg.seq + 1) }) != nil {
			return
		}
		p.at("segment-unlink")
		if p.io(func() error { return p.wal.drop(seg) }) != nil {
			return
		}
	}
}

// log appends one record and returns the segment it landed in, pinned for
// the caller until settle. rows selects a batch record.
func (p *persister) log(op byte, table string, key, value []byte, rows []KV) *walSegment {
	var seg *walSegment
	var sealedNow bool
	p.io(func() (err error) {
		if op == opBatch {
			seg, sealedNow, err = p.wal.appendBatch(table, rows)
		} else {
			seg, sealedNow, err = p.wal.append(op, table, key, value)
		}
		return err
	})
	p.stats.WALAppends.Add(1)
	if sealedNow {
		p.at("segment-sealed")
		if p.wal.overflow() != 0 {
			p.relief.Store(true)
		}
	}
	p.at("wal-appended")
	return seg
}

// ------------------------------------------------------ run-set changes ---

// install is the one step through which a region's run set changes: next
// replaces r.runs, also (if not nil) runs under the same region lock, and
// covered names the memtable whose rows next now holds. Caller holds
// flushMu, and mu as well when holdsMu is set. A follower or in-memory
// region pays the nil check and swaps; for a durable leader see the four
// steps at the top of this file.
func (r *region) install(kind string, next []*blockRun, holdsMu bool, also func(), covered *skiplist) {
	p := r.per
	old := r.runs // stable: every writer of r.runs holds flushMu
	durable := p != nil && p.commit(kind, nil, []*region{r}, [][]*blockRun{next})
	if !holdsMu {
		r.mu.Lock()
	}
	r.runs = next
	if also != nil {
		also()
	}
	if !holdsMu {
		r.mu.Unlock()
	}
	if !durable {
		return
	}
	p.at("runs-swapped:" + kind)
	p.retire(kind, old, next)
	if covered != nil {
		covered.unpin()
		p.dropCovered()
	}
}

// installRegions is install for a change of the table's regions: one edit
// drops the regions of drop and puts those of create with the runs they
// were built with; swap changes t.regions. Caller holds t.mu (or, creating
// the table, is its only reference).
func (t *Table) installRegions(kind string, drop, create []*region, swap func()) {
	p := t.store.per
	durable := false
	if p != nil {
		ids := make([]int64, len(drop))
		for i, r := range drop {
			ids[i] = r.id
		}
		runs := make([][]*blockRun, len(create))
		for i, r := range create {
			runs[i] = r.runs
		}
		durable = p.commit(kind, ids, create, runs)
	}
	swap()
	if !durable {
		return
	}
	p.at("runs-swapped:" + kind)
	for _, r := range drop {
		p.retire(kind, r.runs, nil)
	}
}

// ------------------------------------------------------------- store API ---

// Sync makes everything acknowledged so far safe against power loss: every
// run file and log segment not fsynced yet, the manifest and the directory
// itself are fsynced, and the files and segments that earlier Syncs had made
// safe and that have been replaced since are unlinked. Flushes and
// compactions wait to name their output while the files and the manifest are
// fsynced; writers do not. Returns the first persistence error the store has
// met, if any. A no-op on in-memory stores.
func (s *Store) Sync() error {
	p := s.per
	if p == nil {
		return nil
	}
	s.stats.WALSyncs.Add(1)
	p.io(p.sync)
	return p.err()
}

func (p *persister) sync() error {
	// No edit is appended from here to the manifest's fsync, so the manifest
	// that becomes durable names only files this Sync (or an earlier one)
	// fsyncs, and the held files and segments taken below were all replaced
	// by edits it contains.
	p.man.mu.Lock()
	p.syncMu.Lock()
	files, heldFiles := p.unsynced, p.held
	p.unsynced, p.held = nil, nil
	p.syncMu.Unlock()
	heldSegs, err := p.wal.sync()
	for file := range files {
		if err != nil {
			break
		}
		var f *os.File
		if f, err = os.Open(p.runPath(file)); err == nil {
			err = f.Sync()
			f.Close()
		}
	}
	if err == nil {
		err = p.man.f.Sync()
	}
	p.man.mu.Unlock()
	if err == nil {
		var d *os.File
		if d, err = os.Open(p.dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil || p.err() != nil {
		return err // nothing is unlinked after an error; the next open tidies up
	}
	for _, file := range heldFiles {
		if err := os.Remove(p.runPath(file)); err != nil {
			return err
		}
	}
	return p.wal.releaseHeld(heldSegs)
}

// Checkpoint bounds what a restart has to replay: it seals the active log
// segment, flushes every memtable into a run file, drops the segments that
// are covered, and fsyncs files, manifest and log. It may run beside
// writers; rows they log meanwhile simply stay in the log.
func (s *Store) Checkpoint() error {
	p := s.per
	if p == nil {
		return errors.New("kvstore: store is not durable (no dir)")
	}
	p.io(p.wal.seal)
	for _, t := range s.tablesSnapshot() {
		t.mu.RLock()
		tasks := make([]func(), len(t.regions))
		for i, r := range t.regions {
			r := r
			tasks[i] = func() {
				r.flushMu.Lock()
				r.mu.Lock()
				r.sealLocked()
				r.mu.Unlock()
				for r.flushOldestImm(&s.stats) {
				}
				r.flushMu.Unlock()
			}
		}
		s.fl.runSubTasks(tasks)
		t.mu.RUnlock()
	}
	p.dropCovered()
	return s.Sync()
}

// Quiesce blocks until every background flush and compaction scheduled so
// far has completed — tests call this to observe a settled LSM state and
// deterministic Flushes/Compactions counters.
func (s *Store) Quiesce() {
	s.fl.drain()
}

// Close drains the background flusher and stops the worker pool; a durable
// store then fsyncs and closes its files and returns the first persistence
// error it met. Memtables are not flushed: the log tail covers them. Scans
// issued after Close still work; their tasks fall back to plain goroutines.
func (s *Store) Close() error {
	s.fl.close()
	s.pool.close()
	p := s.per
	if p == nil {
		return nil
	}
	s.Sync()
	p.io(p.wal.close)
	p.io(p.man.close)
	return p.err()
}

// logMutation appends one record to the log when the store is durable and
// returns the pinned segment (nil otherwise) for the apply to hand on to
// the memtable; the caller settles it once the mutation is applied.
func (s *Store) logMutation(op byte, table string, key, value []byte) *walSegment {
	if s.per == nil {
		return nil
	}
	return s.per.log(op, table, key, value, nil)
}

// logBatch is logMutation for one group-commit batch record.
func (s *Store) logBatch(table string, rows []KV) *walSegment {
	if s.per == nil || len(rows) == 0 {
		return nil
	}
	return s.per.log(opBatch, table, nil, nil, rows)
}

// settle releases a writer's pin once its mutation is applied, and, when a
// segment was sealed past the retained bound meanwhile, relieves the log.
func (s *Store) settle(seg *walSegment) {
	if seg == nil {
		return
	}
	seg.unpin()
	if s.per.relief.CompareAndSwap(true, false) {
		s.relieveLog()
	}
}

// relieveLog keeps an idle region from pinning the log forever: when more
// than walMaxSealed sealed segments are waiting, the memtables whose oldest
// row sits in the excess are sealed and queued for flushing.
func (s *Store) relieveLog() {
	seq := s.per.wal.overflow()
	if seq == 0 {
		return
	}
	for _, t := range s.tablesSnapshot() {
		for _, r := range t.regionSnapshot() {
			r.mu.Lock()
			forced := r.mem.seg != nil && r.mem.seg.seq <= seq && r.sealLocked()
			r.mu.Unlock()
			if forced {
				s.per.forcedSeals.Add(1)
				r.fl.enqueue(r)
			}
		}
	}
}

// PersistStats describes what a durable store holds on disk (the zero
// value for an in-memory store).
type PersistStats struct {
	WALSegments     int   // retained log segments, the active one included
	WALTailBytes    int64 // bytes in them: what a restart would replay
	WALBytesLogged  int64 // bytes appended since the store was opened
	SegmentsDropped int64 // segments unlinked since the store was opened
	ForcedSeals     int64 // memtables sealed early to release the log
	RunFiles        int64 // run files named by the manifest
	RunFileBytes    int64
	Errors          int64 // file operations that failed
}

// PersistStats reports the on-disk state.
func (s *Store) PersistStats() PersistStats {
	p := s.per
	if p == nil {
		return PersistStats{}
	}
	w := p.wal.state()
	return PersistStats{
		WALSegments:     w.segments,
		WALTailBytes:    w.bytes,
		WALBytesLogged:  w.logged,
		SegmentsDropped: w.dropped,
		ForcedSeals:     p.forcedSeals.Load(),
		RunFiles:        p.runFiles.Load(),
		RunFileBytes:    p.runFileBytes.Load(),
		Errors:          p.errCount.Load(),
	}
}

// RecoveryStats is what OpenDir did to bring the store back.
type RecoveryStats struct {
	LoadDuration   time.Duration // manifest + run files
	ReplayDuration time.Duration // surviving log segments
	RunFiles       int
	RunFileBytes   int64
	WALSegments    int
	WALBytes       int64 // valid bytes replayed
	WALRows        int64 // rows re-applied from them
}

// Recovery reports the work of the OpenDir that opened this store (the
// zero value for an in-memory store).
func (s *Store) Recovery() RecoveryStats { return s.recovery }
