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
	"sync"
)

// Durability: when Options.Dir is set, every mutation is appended to a
// write-ahead log and Open replays the log on startup, restoring all
// tables. Checkpoint writes a compact snapshot and truncates the log.
//
// Record layout (all little-endian):
//
//	u32 crc  (castagnoli, over everything after this field)
//	u8  op   (1 = put, 2 = delete, 3 = batch put)
//	u16 tableLen | table bytes
//	u32 keyLen   | key bytes        (op = put/delete)
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
// partial batch.

const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.db"

	opPut    = 1
	opDelete = 2
	opBatch  = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSnapshot is returned when a snapshot file fails validation.
var ErrCorruptSnapshot = errors.New("kvstore: corrupt snapshot")

// wal is the append-side of the log.
type wal struct {
	mu      sync.Mutex
	f       *os.File
	buf     *bufio.Writer
	scratch []byte // reusable batch-payload buffer, guarded by mu
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, buf: bufio.NewWriterSize(f, 1<<16)}, nil
}

// append writes one record and pushes it to the OS before returning, so an
// acknowledged mutation survives a process crash (though not a power loss —
// fsync is deferred to Sync/Checkpoint). Value is ignored for deletes. This
// per-record flush is exactly the cost group commit amortizes: a MultiPut
// batch pays one flush for the whole batch via appendBatch.
func (w *wal) append(op byte, table string, key, value []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	payload := encodeWALPayload(op, table, key, value)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(payload, crcTable))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.buf.Write(payload); err != nil {
		return err
	}
	return w.buf.Flush()
}

// appendBatch writes one batch record covering every row — the group-commit
// path of MultiPut. The whole batch is framed by a single CRC under a single
// lock acquisition and pushed to the OS with one buffered flush, so the
// per-row WAL cost (mutex, payload allocation, checksum setup) is amortized
// across the batch. The payload scratch buffer is reused across batches.
func (w *wal) appendBatch(table string, rows []KV) error {
	n := 1 + 2 + len(table) + 4
	for i := range rows {
		n += 8 + len(rows[i].Key) + len(rows[i].Value)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cap(w.scratch) < n {
		w.scratch = make([]byte, 0, n)
	}
	out := appendBatchPayload(w.scratch[:0], table, rows)
	w.scratch = out
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(out, crcTable))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return err
	}
	// Feed the payload through the buffered writer in buffer-sized chunks.
	// A single Write of a payload larger than the buffer would bypass
	// buffering and issue one huge write(2); keeping every syscall at the
	// buffer size is markedly faster on hosts where large writes stall on
	// page allocation.
	const chunk = 32 << 10
	for off := 0; off < len(out); off += chunk {
		end := off + chunk
		if end > len(out) {
			end = len(out)
		}
		if _, err := w.buf.Write(out[off:end]); err != nil {
			return err
		}
	}
	return w.buf.Flush()
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

// sync flushes buffered records to the OS.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.buf.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
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

// replayWAL streams records from the log, stopping cleanly at a torn tail.
// Record lengths are validated against the bytes actually remaining in the
// file, so a bit-flipped length field can never trigger a huge allocation.
func replayWAL(path string, apply func(walRecord)) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	remaining := fi.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn header: stop
		}
		remaining -= 4
		wantCRC := binary.LittleEndian.Uint32(hdr[:])
		rec, payload, err := readWALPayload(r, remaining)
		if err != nil {
			return nil // torn record
		}
		remaining -= int64(len(payload))
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return nil // corrupt tail
		}
		apply(rec)
	}
}

// readWALPayload decodes one record body. remaining bounds every length
// field: a declared length beyond the bytes left in the file is a torn or
// corrupt record, reported before any allocation happens.
func readWALPayload(r *bufio.Reader, remaining int64) (walRecord, []byte, error) {
	var rec walRecord
	op, err := r.ReadByte()
	if err != nil {
		return rec, nil, err
	}
	rec.op = op
	payload := []byte{op}
	remaining--

	readN := func(n int) ([]byte, error) {
		if n < 0 || int64(n) > remaining {
			return nil, fmt.Errorf("kvstore: implausible wal length %d (%d bytes left)", n, remaining)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		remaining -= int64(n)
		payload = append(payload, b...)
		return b, nil
	}

	var l2 [2]byte
	if _, err := io.ReadFull(r, l2[:]); err != nil {
		return rec, nil, err
	}
	remaining -= 2
	payload = append(payload, l2[:]...)
	table, err := readN(int(binary.LittleEndian.Uint16(l2[:])))
	if err != nil {
		return rec, nil, err
	}
	rec.table = string(table)

	var l4 [4]byte
	readLen := func() (int, error) {
		if _, err := io.ReadFull(r, l4[:]); err != nil {
			return 0, err
		}
		remaining -= 4
		payload = append(payload, l4[:]...)
		return int(binary.LittleEndian.Uint32(l4[:])), nil
	}

	if op == opBatch {
		count, err := readLen()
		if err != nil {
			return rec, nil, err
		}
		// Every row needs at least its two length prefixes, which bounds a
		// bit-flipped count before any allocation happens.
		if count < 0 || int64(count)*8 > remaining {
			return rec, nil, fmt.Errorf("kvstore: implausible wal batch count %d (%d bytes left)", count, remaining)
		}
		rec.rows = make([]KV, 0, count)
		for i := 0; i < count; i++ {
			kl, err := readLen()
			if err != nil {
				return rec, nil, err
			}
			key, err := readN(kl)
			if err != nil {
				return rec, nil, err
			}
			vl, err := readLen()
			if err != nil {
				return rec, nil, err
			}
			val, err := readN(vl)
			if err != nil {
				return rec, nil, err
			}
			rec.rows = append(rec.rows, KV{Key: key, Value: val})
		}
		return rec, payload, nil
	}

	kl, err := readLen()
	if err != nil {
		return rec, nil, err
	}
	rec.key, err = readN(kl)
	if err != nil {
		return rec, nil, err
	}

	if op == opPut {
		vl, err := readLen()
		if err != nil {
			return rec, nil, err
		}
		rec.value, err = readN(vl)
		if err != nil {
			return rec, nil, err
		}
	}
	return rec, payload, nil
}

// ------------------------------------------------------------ snapshot ---

// writeSnapshot dumps every live row of every table:
//
//	u32 magic | u32 tableCount
//	per table: u16 nameLen | name | u64 rowCount | rows (u32 k | k | u32 v | v)
//	u32 crc over everything before it
const snapMagic = 0x744d414e // "tMAN"

func (s *Store) writeSnapshot(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	crc := crc32.New(crcTable)
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<16)

	names := s.TableNames()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(names)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, name := range names {
		rows := s.Table(name).Scan(nil, nil, nil, 0)
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(name)))
		w.Write(nl[:])
		w.WriteString(name)
		var rc [8]byte
		binary.LittleEndian.PutUint64(rc[:], uint64(len(rows)))
		w.Write(rc[:])
		var l4 [4]byte
		for _, kv := range rows {
			binary.LittleEndian.PutUint32(l4[:], uint32(len(kv.Key)))
			w.Write(l4[:])
			w.Write(kv.Key)
			binary.LittleEndian.PutUint32(l4[:], uint32(len(kv.Value)))
			w.Write(l4[:])
			w.Write(kv.Value)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := f.Write(tail[:]); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (s *Store) loadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) < 12 {
		return ErrCorruptSnapshot
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return ErrCorruptSnapshot
	}
	if binary.LittleEndian.Uint32(body[:4]) != snapMagic {
		return ErrCorruptSnapshot
	}
	tableCount := int(binary.LittleEndian.Uint32(body[4:8]))
	p := 8
	read := func(n int) ([]byte, error) {
		if p+n > len(body) {
			return nil, ErrCorruptSnapshot
		}
		b := body[p : p+n]
		p += n
		return b, nil
	}
	for t := 0; t < tableCount; t++ {
		nl, err := read(2)
		if err != nil {
			return err
		}
		nameB, err := read(int(binary.LittleEndian.Uint16(nl)))
		if err != nil {
			return err
		}
		rc, err := read(8)
		if err != nil {
			return err
		}
		tbl := s.OpenTable(string(nameB))
		rows := binary.LittleEndian.Uint64(rc)
		for i := uint64(0); i < rows; i++ {
			kl, err := read(4)
			if err != nil {
				return err
			}
			k, err := read(int(binary.LittleEndian.Uint32(kl)))
			if err != nil {
				return err
			}
			vl, err := read(4)
			if err != nil {
				return err
			}
			v, err := read(int(binary.LittleEndian.Uint32(vl)))
			if err != nil {
				return err
			}
			key := make([]byte, len(k))
			copy(key, k)
			val := make([]byte, len(v))
			copy(val, v)
			tbl.Put(key, val)
		}
	}
	return nil
}

// ---------------------------------------------------------- store hooks ---

// OpenDir opens (or recovers) a durable store rooted at dir: the snapshot
// is loaded first, then the WAL replayed on top. fences is as for Open:
// replay-triggered flushes build fenced runs from the first record on.
func OpenDir(dir string, opts Options, fences ...TableFence) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := Open(opts, fences...)
	s.dir = dir
	if err := s.loadSnapshot(filepath.Join(dir, snapFileName)); err != nil {
		return nil, err
	}
	err := replayWAL(filepath.Join(dir, walFileName), func(rec walRecord) {
		tbl := s.OpenTable(rec.table)
		switch rec.op {
		case opPut:
			tbl.Put(rec.key, rec.value)
		case opDelete:
			tbl.Delete(rec.key)
		case opBatch:
			// s.wal is still nil during replay, so this cannot re-log.
			tbl.MultiPut(rec.rows)
		}
	})
	if err != nil {
		return nil, err
	}
	w, err := openWAL(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// Checkpoint writes a snapshot of all tables and truncates the WAL. Safe to
// call at any quiesced point (no concurrent writers).
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return errors.New("kvstore: store is not durable (no dir)")
	}
	s.stats.WALSyncs.Add(1)
	if err := s.wal.sync(); err != nil {
		return err
	}
	if err := s.writeSnapshot(filepath.Join(s.dir, snapFileName)); err != nil {
		return err
	}
	// Truncate the log: everything it held is in the snapshot.
	if err := s.wal.close(); err != nil {
		return err
	}
	if err := os.Truncate(filepath.Join(s.dir, walFileName), 0); err != nil {
		return err
	}
	w, err := openWAL(filepath.Join(s.dir, walFileName))
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

// Sync flushes the WAL to stable storage.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	s.stats.WALSyncs.Add(1)
	return s.wal.sync()
}

// Quiesce blocks until every background flush and compaction scheduled so
// far has completed — tests and checkpoints call this to observe a settled
// LSM state and deterministic Flushes/Compactions counters.
func (s *Store) Quiesce() {
	s.fl.drain()
}

// Close drains the background flusher, stops the worker pool, and flushes
// and closes the WAL (which in-memory stores don't have). Scans issued
// after Close still work; their tasks fall back to plain goroutines.
func (s *Store) Close() error {
	s.fl.close()
	s.pool.close()
	if s.wal == nil {
		return nil
	}
	return s.wal.close()
}

// logMutation appends to the WAL when durability is enabled.
func (s *Store) logMutation(op byte, table string, key, value []byte) {
	if s.wal != nil {
		// WAL errors are surfaced on Sync/Close; the in-memory state is
		// already updated, matching the fire-and-forget semantics of an
		// async WAL.
		_ = s.wal.append(op, table, key, value)
		s.stats.WALAppends.Add(1)
	}
}

// logBatch appends one group-commit batch record when durability is enabled.
func (s *Store) logBatch(table string, rows []KV) {
	if s.wal != nil && len(rows) > 0 {
		_ = s.wal.appendBatch(table, rows)
		s.stats.WALAppends.Add(1)
	}
}
