package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Durability: when the store is opened on a directory (OpenDir), every
// mutation is appended to a write-ahead log before it is applied. The log is
// a sequence of fixed-size segments: the one being appended to is always
// named wal.log; a full one is renamed wal-<seq>.log and a fresh wal.log is
// started. A sealed segment is unlinked as soon as every row logged in it is
// covered by a run file named in the manifest (persist.go), so a restart
// replays only the surviving tail.
//
// Record layout (all little-endian):
//
//	u32 crc  (castagnoli, over everything after this field)
//	u8  op   (1 = put, 2 = delete, 3 = batch put, 4 = drop table)
//	u16 tableLen | table bytes
//	u32 keyLen   | key bytes        (op = put/delete; empty for drop table)
//	u32 valLen   | value bytes      (op = put only)
//
// A batch record (op = 3) replaces the key/value section with
//
//	u32 rowCount | rowCount × (u32 keyLen | key | u32 valLen | value)
//
// so a whole MultiPut commits as one CRC-framed group: one lock
// acquisition, one checksum, one buffered flush. A torn record (crash
// mid-write) is detected by CRC/length and cleanly ignored, as in any LSM
// WAL — for a batch that means all-or-nothing: replay never applies a
// partial batch. A record never straddles two segments.

const (
	walFileName = "wal.log" // the active segment

	// walSegmentBytes is the size at which the active segment is sealed,
	// and walMaxSealed how many sealed segments may wait for their rows to
	// be flushed before the memtables pinning the oldest are sealed and
	// queued for flushing (HBase's max-logs rule). Together they bound what
	// a restart replays at (walMaxSealed+1) × walSegmentBytes, and replay
	// costs ≈ 50 ms per MiB. Measured on the benchmark's bulk-ingest, where
	// 1 MiB memtables over 60-100 regions pin 28-51 MB of log on their own:
	// 8 sealed segments force only the small metadata tables (3 seals a
	// run) but let the tail reach 51 MB at the kill, and 72 MiB whenever an
	// idle table pins it (restarts 1.1-3.0 s); 4 keep it at 28-41 MB
	// (restarts 1.1-1.8 s) for 9-59 early seals among ≈ 270 flushes (+3.5 %
	// flushes, compactions and write amplification unchanged).
	walSegmentBytes = 8 << 20
	walMaxSealed    = 4

	opPut       = 1
	opDelete    = 2
	opBatch     = 3
	opDropTable = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walSegment is one log segment and the handle writers and memtables pin it
// by. pins counts the memtables whose oldest row was logged here plus the
// writers that appended here and have not applied yet; the log is dropped
// strictly oldest-first, so a segment with pins > 0 also keeps every newer
// one. A sealed segment can only lose pins: new ones are taken on the active
// segment alone (or moved down from a newer segment by a writer that still
// holds its own pin on the older one).
type walSegment struct {
	seq   int64
	pins  atomic.Int64
	bytes int64 // guarded by wal.mu
	// synced is how many of its bytes the last Sync of this process fsynced
	// (guarded by wal.mu). Below bytes, the next Sync has to fsync it again;
	// above zero, it holds rows a Sync promised and its unlink waits for the
	// next one.
	synced int64
}

// unpin releases one pin; nil-safe (in-memory stores log nothing).
func (g *walSegment) unpin() {
	if g != nil {
		g.pins.Add(-1)
	}
}

func sealedSegmentName(seq int64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// wal is the append side of the log.
type wal struct {
	dir      string
	segBytes int64 // rotation threshold: walSegmentBytes outside tests

	mu      sync.Mutex
	f       *os.File
	buf     *bufio.Writer
	scratch []byte        // reusable batch-payload buffer, guarded by mu
	active  *walSegment   // wal.log
	sealed  []*walSegment // oldest first
	held    []*walSegment // dropped, but synced: unlinked by the next sync
	logged  int64         // bytes appended by this process
	dropped int64         // segments dropped by this process
}

// openWAL opens dir's active segment for appending behind the given sealed
// segments (oldest first). floor is the manifest's log floor: the active
// segment is never numbered below it, even when every sealed one is gone.
func openWAL(dir string, sealed []*walSegment, floor int64) (*wal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	seq := max(floor, 1)
	if n := len(sealed); n > 0 {
		seq = sealed[n-1].seq + 1
	}
	return &wal{
		dir: dir, segBytes: walSegmentBytes,
		f: f, buf: bufio.NewWriterSize(f, 1<<16),
		active: &walSegment{seq: seq, bytes: fi.Size()},
		sealed: sealed,
	}, nil
}

// sealedSegments turns the wal-* names found in dir into segments, oldest
// first.
func sealedSegments(dir string, names []string) ([]*walSegment, error) {
	var out []*walSegment
	for _, name := range names {
		var seq int64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err != nil || seq <= 0 || name != sealedSegmentName(seq) {
			continue // not ours
		}
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, &walSegment{seq: seq, bytes: fi.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// append writes one record and pushes it to the OS before returning, so an
// acknowledged mutation survives a process crash (though not a power loss —
// fsync is deferred to Sync/Checkpoint). Value is ignored for deletes. This
// per-record flush is exactly the cost group commit amortizes: a MultiPut
// batch pays one flush for the whole batch via appendBatch.
//
// The returned segment is the one the record landed in, pinned once on the
// caller's behalf: the caller applies the mutation and then unpins. sealedNow
// reports that this append filled the segment and sealed it.
func (w *wal) append(op byte, table string, key, value []byte) (seg *walSegment, sealedNow bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(encodeWALPayload(op, table, key, value))
}

// appendBatch writes one batch record covering every row — the group-commit
// path of MultiPut. The whole batch is framed by a single CRC under a single
// lock acquisition and pushed to the OS with one buffered flush, so the
// per-row WAL cost (mutex, payload allocation, checksum setup) is amortized
// across the batch. The payload scratch buffer is reused across batches.
// Returns as append does.
func (w *wal) appendBatch(table string, rows []KV) (seg *walSegment, sealedNow bool, err error) {
	n := 1 + 2 + len(table) + 4
	for i := range rows {
		n += 8 + len(rows[i].Key) + len(rows[i].Value)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cap(w.scratch) < n {
		w.scratch = make([]byte, 0, n)
	}
	w.scratch = appendBatchPayload(w.scratch[:0], table, rows)
	return w.writeLocked(w.scratch)
}

// writeLocked frames payload into the active segment and seals the segment
// once it is full. Caller holds mu.
func (w *wal) writeLocked(payload []byte) (*walSegment, bool, error) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(payload, crcTable))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return nil, false, err
	}
	// Feed the payload through the buffered writer in buffer-sized chunks.
	// A single Write of a payload larger than the buffer would bypass
	// buffering and issue one huge write(2); keeping every syscall at the
	// buffer size is markedly faster on hosts where large writes stall on
	// page allocation.
	const chunk = 32 << 10
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := w.buf.Write(payload[off:end]); err != nil {
			return nil, false, err
		}
	}
	if err := w.buf.Flush(); err != nil {
		return nil, false, err
	}
	seg := w.active
	seg.pins.Add(1)
	n := int64(4 + len(payload))
	seg.bytes += n
	w.logged += n
	if seg.bytes < w.segBytes {
		return seg, false, nil
	}
	return seg, true, w.sealLocked()
}

// sealLocked renames the active segment to its sealed name and starts an
// empty wal.log. Caller holds mu and has flushed buf.
func (w *wal) sealLocked() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	path := filepath.Join(w.dir, walFileName)
	if err := os.Rename(path, filepath.Join(w.dir, sealedSegmentName(w.active.seq))); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.buf.Reset(f)
	w.sealed = append(w.sealed, w.active)
	w.active = &walSegment{seq: w.active.seq + 1}
	return nil
}

// seal closes the active segment early (Checkpoint), unless it is empty.
func (w *wal) seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active.bytes == 0 {
		return nil
	}
	if err := w.buf.Flush(); err != nil {
		return err
	}
	return w.sealLocked()
}

// pinActive pins the active segment for a writer that applies before it
// logs (MultiPutCtx): whatever it logs later lands here or further on.
func (w *wal) pinActive() *walSegment {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.active.pins.Add(1)
	return w.active
}

// overflow returns the sequence number of the newest sealed segment that
// has to go for the log to be back within walMaxSealed, or 0.
func (w *wal) overflow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if over := len(w.sealed) - walMaxSealed; over > 0 {
		return w.sealed[over-1].seq
	}
	return 0
}

// oldestUnpinned returns the oldest sealed segment when nothing pins it —
// the next one to drop — or nil.
func (w *wal) oldestUnpinned() *walSegment {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.sealed) > 0 && w.sealed[0].pins.Load() == 0 {
		return w.sealed[0]
	}
	return nil
}

// drop retires seg if it is still the oldest sealed segment (another
// flusher may have dropped it meanwhile); the caller has moved the
// manifest's log floor past it. A segment no Sync has touched is unlinked at
// once; one that holds synced rows is kept for the next sync to unlink, so
// that a power loss never finds it gone while the run files covering it are
// not on disk yet.
func (w *wal) drop(seg *walSegment) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.sealed) == 0 || w.sealed[0] != seg {
		return nil
	}
	if seg.synced > 0 {
		w.held = append(w.held, seg)
	} else if err := w.unlink(seg); err != nil {
		return err
	}
	w.sealed[0] = nil
	w.sealed = w.sealed[1:]
	w.dropped++
	return nil
}

func (w *wal) unlink(seg *walSegment) error {
	err := os.Remove(filepath.Join(w.dir, sealedSegmentName(seg.seq)))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// walState is a point-in-time summary of the retained log.
type walState struct {
	segments int   // sealed + active
	bytes    int64 // what a restart would replay
	logged   int64
	dropped  int64
}

func (w *wal) state() walState {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := walState{segments: len(w.sealed) + 1, bytes: w.active.bytes, logged: w.logged, dropped: w.dropped}
	for _, g := range w.sealed {
		st.bytes += g.bytes
	}
	return st
}

func encodeWALPayload(op byte, table string, key, value []byte) []byte {
	n := 1 + 2 + len(table) + 4 + len(key) + 4 + len(value)
	out := make([]byte, 0, n)
	out = append(out, op)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(table)))
	out = append(out, table...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(key)))
	out = append(out, key...)
	if op == opPut {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(value)))
		out = append(out, value...)
	}
	return out
}

// sync fsyncs the log: the active segment and every retained sealed segment
// that has grown since it was last fsynced (sealing does not fsync). It
// returns the dropped segments that were waiting for a sync; the caller
// unlinks them (releaseHeld) once the manifest and the run files are synced
// too.
func (w *wal) sync() (held []*walSegment, err error) {
	w.mu.Lock()
	if err := w.buf.Flush(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	if err := w.f.Sync(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	w.active.synced = w.active.bytes
	var stale []*walSegment
	for _, seg := range w.sealed {
		if seg.synced < seg.bytes {
			stale = append(stale, seg)
		}
	}
	held, w.held = w.held, nil
	w.mu.Unlock()
	// Sealed segments no longer change, so they are fsynced outside the
	// lock and writers go on appending meanwhile.
	for _, seg := range stale {
		f, err := os.Open(filepath.Join(w.dir, sealedSegmentName(seg.seq)))
		if errors.Is(err, os.ErrNotExist) {
			continue // dropped meanwhile
		}
		if err == nil {
			err = f.Sync()
			f.Close()
		}
		if err != nil {
			w.mu.Lock()
			w.held = append(held, w.held...)
			w.mu.Unlock()
			return nil, err
		}
	}
	w.mu.Lock()
	for _, seg := range stale {
		seg.synced = seg.bytes
	}
	w.mu.Unlock()
	return held, nil
}

// releaseHeld unlinks what sync handed out.
func (w *wal) releaseHeld(held []*walSegment) error {
	for _, seg := range held {
		if err := w.unlink(seg); err != nil {
			return err
		}
	}
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.buf.Flush(); err != nil {
		return err
	}
	return w.f.Close()
}

// walRecord is one replayed mutation. A batch record carries rows instead
// of key/value.
type walRecord struct {
	op    byte
	table string
	key   []byte
	value []byte
	rows  []KV
}

// replayWAL streams records from one segment file, stopping cleanly at a
// torn tail, and returns the length of the valid prefix. Record lengths are
// validated against the bytes actually remaining in the file, so a
// bit-flipped length field can never trigger a huge allocation. A missing
// file is an empty log.
func replayWAL(path string, apply func(walRecord)) (valid int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, nil // clean EOF or torn header: stop
		}
		rec, n, crc, err := readWALPayload(r, size-valid-4)
		if err != nil {
			return valid, nil // torn record
		}
		if crc != binary.LittleEndian.Uint32(hdr[:]) {
			return valid, nil // corrupt tail
		}
		valid += 4 + n
		apply(rec)
	}
}

// readWALPayload decodes one record body, returning its length and
// checksum. remaining bounds every length field: a declared length beyond
// the bytes left in the file is a torn or corrupt record, reported before
// any allocation happens.
func readWALPayload(r *bufio.Reader, remaining int64) (rec walRecord, n int64, crc uint32, err error) {
	// Fixed-width fields pass through one scratch array; keys and values
	// are read straight into the slices the record keeps.
	var fixed [4]byte
	take := func(b []byte) error {
		if int64(len(b)) > remaining {
			return fmt.Errorf("kvstore: implausible wal length %d (%d bytes left)", len(b), remaining)
		}
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		remaining -= int64(len(b))
		n += int64(len(b))
		crc = crc32.Update(crc, crcTable, b)
		return nil
	}
	readN := func(l int) ([]byte, error) {
		if l < 0 || int64(l) > remaining {
			return nil, fmt.Errorf("kvstore: implausible wal length %d (%d bytes left)", l, remaining)
		}
		b := make([]byte, l)
		return b, take(b)
	}
	readLen := func() (int, error) {
		if err := take(fixed[:4]); err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint32(fixed[:4])), nil
	}

	if err = take(fixed[:1]); err != nil {
		return rec, 0, 0, err
	}
	rec.op = fixed[0]
	if err = take(fixed[:2]); err != nil {
		return rec, 0, 0, err
	}
	table, err := readN(int(binary.LittleEndian.Uint16(fixed[:2])))
	if err != nil {
		return rec, 0, 0, err
	}
	rec.table = string(table)

	if rec.op == opBatch {
		count, err := readLen()
		if err != nil {
			return rec, 0, 0, err
		}
		// Every row needs at least its two length prefixes, which bounds a
		// bit-flipped count before any allocation happens.
		if count < 0 || int64(count)*8 > remaining {
			return rec, 0, 0, fmt.Errorf("kvstore: implausible wal batch count %d (%d bytes left)", count, remaining)
		}
		rec.rows = make([]KV, 0, count)
		for i := 0; i < count; i++ {
			kl, err := readLen()
			if err != nil {
				return rec, 0, 0, err
			}
			key, err := readN(kl)
			if err != nil {
				return rec, 0, 0, err
			}
			vl, err := readLen()
			if err != nil {
				return rec, 0, 0, err
			}
			val, err := readN(vl)
			if err != nil {
				return rec, 0, 0, err
			}
			rec.rows = append(rec.rows, KV{Key: key, Value: val})
		}
		return rec, n, crc, nil
	}

	kl, err := readLen()
	if err != nil {
		return rec, 0, 0, err
	}
	if rec.key, err = readN(kl); err != nil {
		return rec, 0, 0, err
	}
	if rec.op == opPut {
		vl, err := readLen()
		if err != nil {
			return rec, 0, 0, err
		}
		if rec.value, err = readN(vl); err != nil {
			return rec, 0, 0, err
		}
	}
	return rec, n, crc, nil
}
