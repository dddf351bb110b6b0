package kvstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// OpenDir opens (or recovers) a durable store rooted at dir. Recovery reads
// the manifest, rebuilds every table's regions and loads their run files in
// parallel, deletes whatever run files the manifest does not name and
// whatever log segments lie below its log floor (what a crash between
// writing a file and naming it, or between naming its replacement and
// unlinking it, leaves behind — and what was being held for the next Sync),
// cuts a torn tail off the manifest (and rewrites it compactly once it has
// grown large), and then replays the log segments from the floor on — only
// the tail whose rows were not yet in a named run file — through the
// recovered regions, in order. Replaying a record whose row a run already
// holds is harmless: every later record for the key is replayed after it.
//
// A directory holding only a wal.log (written before run files existed) is
// an empty manifest plus one segment. fences is as for Open: flushes
// triggered by the replay build fenced runs from the first record on.
func OpenDir(dir string, opts Options, fences ...TableFence) (_ *Store, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	// One listing serves the whole open: opening an empty directory stays a
	// couple of file creates.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runNames, sealedNames []string
	hasManifest := false
	for _, e := range entries {
		switch name := e.Name(); {
		case name == legacySnapshotFile:
			return nil, fmt.Errorf("kvstore: %s holds a %s written by a version that checkpointed into row snapshots; this version cannot read it", dir, legacySnapshotFile)
		case name == manifestFileName:
			hasManifest = true
		case strings.HasPrefix(name, "run-"):
			runNames = append(runNames, name)
		case strings.HasPrefix(name, "wal-"):
			sealedNames = append(sealedNames, name)
		}
	}
	s := Open(opts, fences...)
	p := &persister{dir: dir, stats: &s.stats}
	s.per = p
	defer func() {
		if err != nil { // give back what a half-opened store holds
			if p.wal != nil {
				p.wal.f.Close()
			}
			if p.man != nil {
				p.man.f.Close()
			}
			s.fl.close()
			s.pool.close()
		}
	}()

	manPath := filepath.Join(dir, manifestFileName)
	var image []byte
	if hasManifest {
		if image, err = os.ReadFile(manPath); err != nil {
			return nil, err
		}
	}
	regions, logFloor, valid, err := replayManifest(image)
	if err != nil {
		return nil, err
	}
	layouts, err := tableLayouts(regions)
	if err != nil {
		return nil, err
	}
	named, err := s.loadTables(layouts)
	if err != nil {
		return nil, err
	}
	if err := p.removeUnnamed(runNames, named); err != nil {
		return nil, err
	}
	if err := p.openManifest(manPath, len(image), valid, s.tablesSnapshot(), logFloor); err != nil {
		return nil, err
	}
	s.recovery.LoadDuration = time.Since(start)

	start = time.Now()
	if err := s.replayLog(sealedNames, logFloor); err != nil {
		return nil, err
	}
	s.recovery.ReplayDuration = time.Since(start)
	return s, nil
}

// loadTables rebuilds the tables the manifest describes, loading every run
// file on the flusher's helper pool, moves the store's id sequences past
// what it found, and returns the file numbers in use.
func (s *Store) loadTables(layouts map[string][]*regionDesc) (named map[uint64]bool, err error) {
	p := s.per
	named = make(map[uint64]bool)
	var (
		tasks   []func()
		errMu   sync.Mutex
		maxID   int64
		maxFile uint64
		maxGrp  uint64
		regions []*region
	)
	names := make([]string, 0, len(layouts))
	for name := range layouts {
		names = append(names, name)
	}
	sort.Strings(names) // follower ids below are issued in this order
	for _, name := range names {
		t := tableShell(name, s)
		for _, d := range layouts[name] {
			r := t.newRegion(d.id, d.start, d.end, d.node%s.opts.Nodes)
			r.runs = make([]*blockRun, len(d.refs))
			maxID = max(maxID, d.id)
			for i, ref := range d.refs {
				i, ref := i, ref
				named[ref.file] = true
				maxFile = max(maxFile, ref.file)
				maxGrp = max(maxGrp, ref.group)
				tasks = append(tasks, func() {
					run, lerr := p.loadRun(t.bcfg, ref)
					if lerr != nil {
						errMu.Lock()
						if err == nil {
							err = lerr
						}
						errMu.Unlock()
						return
					}
					r.runs[i] = run
				})
			}
			t.regions = append(t.regions, r)
			regions = append(regions, r)
		}
		s.tables[name] = t
	}
	s.fl.runSubTasks(tasks)
	if err != nil {
		return nil, err
	}
	s.regionSeq.Store(maxID)
	s.nodeSeq.Store(int64(len(regions)))
	p.nextFile.Store(maxFile)
	for cur := runGroupSeq.Load(); cur < maxGrp && !runGroupSeq.CompareAndSwap(cur, maxGrp); cur = runGroupSeq.Load() {
	}
	for _, r := range regions {
		// As after an aborted split: the ingest metric restarts from what
		// the region actually holds.
		r.writeBytes.Store(int64(r.sizeLocked()))
		s.initReplication(r)
	}
	s.recovery.RunFiles = len(named)
	s.recovery.RunFileBytes = p.runFileBytes.Load()
	return named, nil
}

// loadRun reads one named run file.
func (p *persister) loadRun(cfg *blockConfig, ref runRef) (*blockRun, error) {
	path := p.runPath(ref.file)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRunFileCorrupt, err)
	}
	run, err := decodeRunFile(cfg, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	run.file, run.fileBytes, run.group = ref.file, int64(len(data)), ref.group
	p.named(run)
	return run, nil
}

// removeUnnamed deletes the run files and temporaries (names, as listed)
// the manifest does not name.
func (p *persister) removeUnnamed(names []string, named map[uint64]bool) error {
	for _, name := range names {
		var file uint64
		path := filepath.Join(p.dir, name)
		if _, err := fmt.Sscanf(name, "run-%d.run", &file); err == nil && named[file] && path == p.runPath(file) {
			continue
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// openManifest opens the manifest (size bytes long, the first valid of them
// sound) for appending: a torn tail is cut off, an empty file gets its
// magic, and one grown past manifestCompactBytes is first rewritten as one
// put per live region — temporary name, fsync, rename.
func (p *persister) openManifest(path string, size, valid int, tables []*Table, logFloor int64) error {
	switch {
	case size > manifestCompactBytes:
		buf := appendFloorEdit(binary.LittleEndian.AppendUint32(nil, manifestMagic), logFloor)
		for _, t := range tables {
			for _, r := range t.regions {
				buf = appendEdit(buf, nil, []regionDesc{describeRegion(r, r.runs)})
			}
		}
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		_, err = f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			return err
		}
	case valid < size:
		if err := os.Truncate(path, int64(valid)); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if size == 0 {
		if _, err := f.Write(binary.LittleEndian.AppendUint32(nil, manifestMagic)); err != nil {
			f.Close()
			return err
		}
	}
	p.man = &manifest{f: f}
	return nil
}

// replayLog re-applies the log segments from the manifest's floor on, oldest
// first, each pinned until it is through: flushes triggered by the replay
// already drop covered segments, and must not reach one whose rows are still
// to come. Segments below the floor were dropped and only not unlinked yet:
// newer ones that held later versions of their rows may be gone, so they are
// deleted, never replayed. The active segment's torn tail, if any, is cut
// off before it is appended to again.
func (s *Store) replayLog(sealedNames []string, floor int64) error {
	p := s.per
	sealed, err := sealedSegments(p.dir, sealedNames)
	if err != nil {
		return err
	}
	for len(sealed) > 0 && sealed[0].seq < floor {
		if err := os.Remove(filepath.Join(p.dir, sealedSegmentName(sealed[0].seq))); err != nil {
			return err
		}
		sealed = sealed[1:]
	}
	w, err := openWAL(p.dir, sealed, floor)
	if err != nil {
		return err
	}
	p.wal = w
	segs := append(append([]*walSegment(nil), sealed...), w.active)
	for _, seg := range segs {
		seg.pins.Add(1)
	}
	for _, seg := range segs {
		path := filepath.Join(p.dir, walFileName)
		if seg != w.active {
			path = filepath.Join(p.dir, sealedSegmentName(seg.seq))
		}
		valid, err := replayWAL(path, func(rec walRecord) { s.applyRecord(rec, seg) })
		if err != nil {
			return err
		}
		if seg == w.active && valid < seg.bytes {
			if err := os.Truncate(path, valid); err != nil {
				return err
			}
			seg.bytes = valid
		}
		s.recovery.WALSegments++
		s.recovery.WALBytes += valid
		seg.unpin()
		p.dropCovered()
	}
	return nil
}

// applyRecord re-applies one logged mutation without logging it again.
func (s *Store) applyRecord(rec walRecord, seg *walSegment) {
	switch rec.op {
	case opPut:
		s.OpenTable(rec.table).applyPut(rec.key, rec.value, seg)
		s.recovery.WALRows++
	case opDelete:
		s.OpenTable(rec.table).applyDelete(rec.key, seg)
		s.recovery.WALRows++
	case opBatch:
		s.OpenTable(rec.table).applyBatch(rec.rows, seg)
		s.recovery.WALRows += int64(len(rec.rows))
	case opDropTable:
		s.dropTable(rec.table)
	}
}
