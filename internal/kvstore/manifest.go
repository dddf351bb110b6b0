package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"sync"

	"github.com/tman-db/tman/internal/compress"
)

// The manifest names the live run set: an append-only file of CRC-framed
// edits, one per change of a table's regions or a region's runs.
//
//	u32 magic "tMF1"
//	edits: u32 crc32c(payload) | u32 payload length | payload
//
// A payload is a list of operations applied together:
//
//	uvarint op count
//	op 1, put region: uvarint table length | table | uvarint region id |
//	      u8 open ends (bit 0: no start key, bit 1: no end key) |
//	      uvarint start length | start | uvarint end length | end |
//	      uvarint node | uvarint run count |
//	      per run, oldest first: uvarint file number | uvarint group id
//	op 2, drop region: uvarint region id
//	op 3, log floor: uvarint segment number — log segments numbered below it
//	      hold no row a named run file does not (the highest floor counts)
//
// "Put" is an upsert carrying the region's whole descriptor and run stack,
// so replaying edits is idempotent and a flush, a compaction, a promotion
// and a re-homing are all the same edit; a split is one edit that drops the
// parent and puts both children. An edit that stops short of its declared
// length — a crash mid-append — ends the replay and is ignored, unless a
// whole edit can still be found behind it: then it was not the append that
// stopped short but a length field that was damaged, and the file is
// ErrManifestCorrupt. An edit that is complete but fails its checksum is
// ignored only as the last edit of the file, and otherwise
// ErrManifestCorrupt too: edits behind a damaged one may have unlinked files
// and log segments the earlier ones need. The next open cuts a torn tail off
// before it appends.

const (
	manifestFileName = "MANIFEST"
	manifestMagic    = 0x31464d74 // "tMF1"

	// manifestCompactBytes is the size past which an open rewrites the
	// manifest as one put per live region. An edit is ≈ 100 bytes, so this
	// is ≈ 10 000 flushes and compactions; replaying that many takes
	// milliseconds, while the rewrite has to fsync before its rename (the
	// old manifest may name data a Checkpoint made power-loss safe), and an
	// fsync behind hundreds of megabytes of dirty pages was measured at a
	// second and more of restart time.
	manifestCompactBytes = 1 << 20

	editPutRegion  = 1
	editDropRegion = 2
	editLogFloor   = 3
)

// ErrManifestCorrupt is returned (wrapped) by OpenDir when the manifest is
// damaged before its last edit or describes an impossible table.
var ErrManifestCorrupt = errors.New("kvstore: corrupt manifest")

func corruptManifest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrManifestCorrupt, fmt.Sprintf(format, args...))
}

// runRef names one run of a region's stack in the manifest.
type runRef struct {
	file  uint64
	group uint64
}

// regionDesc is a region as the manifest records it.
type regionDesc struct {
	table      string
	id         int64
	start, end []byte
	node       int
	refs       []runRef
}

func describeRegion(r *region, runs []*blockRun) regionDesc {
	d := regionDesc{table: r.tname, id: r.id, start: r.startKey, end: r.endKey, node: r.nodeID(), refs: make([]runRef, len(runs))}
	for i, run := range runs {
		d.refs[i] = runRef{file: run.file, group: run.group}
	}
	return d
}

// appendEdit encodes one edit: drops first, then puts.
func appendEdit(dst []byte, drops []int64, puts []regionDesc) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = compress.AppendUvarint(dst, uint64(len(drops)+len(puts)))
	for _, id := range drops {
		dst = append(dst, editDropRegion)
		dst = compress.AppendUvarint(dst, uint64(id))
	}
	for _, d := range puts {
		dst = append(dst, editPutRegion)
		dst = compress.AppendUvarint(dst, uint64(len(d.table)))
		dst = append(dst, d.table...)
		dst = compress.AppendUvarint(dst, uint64(d.id))
		var open byte
		if d.start == nil {
			open |= 1
		}
		if d.end == nil {
			open |= 2
		}
		dst = append(dst, open)
		dst = compress.AppendUvarint(dst, uint64(len(d.start)))
		dst = append(dst, d.start...)
		dst = compress.AppendUvarint(dst, uint64(len(d.end)))
		dst = append(dst, d.end...)
		dst = compress.AppendUvarint(dst, uint64(d.node))
		dst = compress.AppendUvarint(dst, uint64(len(d.refs)))
		for _, ref := range d.refs {
			dst = compress.AppendUvarint(dst, ref.file)
			dst = compress.AppendUvarint(dst, ref.group)
		}
	}
	payload := dst[head+8:]
	binary.LittleEndian.PutUint32(dst[head:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[head+4:], uint32(len(payload)))
	return dst
}

// appendFloorEdit encodes the edit that moves the log floor to seq.
func appendFloorEdit(dst []byte, seq int64) []byte {
	payload := compress.AppendUvarint([]byte{1, editLogFloor}, uint64(seq))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// applyEditPayload folds one checksummed payload into regions and the log
// floor.
func applyEditPayload(p []byte, regions map[int64]*regionDesc, floor *int64) error {
	uv := func(what string) (uint64, error) {
		v, n := compress.Uvarint(p)
		if n <= 0 {
			return 0, corruptManifest("truncated %s", what)
		}
		p = p[n:]
		return v, nil
	}
	take := func(what string) ([]byte, error) {
		l, err := uv(what + " length")
		if err != nil {
			return nil, err
		}
		if l > uint64(len(p)) {
			return nil, corruptManifest("%s of %d bytes, %d present", what, l, len(p))
		}
		b := p[:l:l]
		p = p[l:]
		return b, nil
	}
	ops, err := uv("op count")
	if err != nil {
		return err
	}
	for ; ops > 0; ops-- {
		if len(p) == 0 {
			return corruptManifest("edit ends before its last op")
		}
		kind := p[0]
		p = p[1:]
		switch kind {
		case editDropRegion:
			id, err := uv("region id")
			if err != nil {
				return err
			}
			delete(regions, int64(id))
		case editLogFloor:
			seq, err := uv("log floor")
			if err != nil {
				return err
			}
			*floor = max(*floor, int64(seq&math.MaxInt64))
		case editPutRegion:
			table, err := take("table name")
			if err != nil {
				return err
			}
			id, err := uv("region id")
			if err != nil {
				return err
			}
			if len(p) == 0 {
				return corruptManifest("truncated key flags")
			}
			open := p[0]
			p = p[1:]
			d := &regionDesc{table: string(table), id: int64(id)}
			if d.start, err = take("start key"); err != nil {
				return err
			}
			if d.end, err = take("end key"); err != nil {
				return err
			}
			if open&1 != 0 {
				d.start = nil
			}
			if open&2 != 0 {
				d.end = nil
			}
			node, err := uv("node")
			if err != nil {
				return err
			}
			d.node = int(node & 0xffff)
			nRuns, err := uv("run count")
			if err != nil {
				return err
			}
			// Every run takes at least two bytes of payload.
			if nRuns > uint64(len(p))/2 {
				return corruptManifest("run count %d exceeds the edit", nRuns)
			}
			d.refs = make([]runRef, nRuns)
			for i := range d.refs {
				if d.refs[i].file, err = uv("file number"); err != nil {
					return err
				}
				if d.refs[i].group, err = uv("group id"); err != nil {
					return err
				}
			}
			regions[d.id] = d
		default:
			return corruptManifest("unknown op %d", kind)
		}
	}
	if len(p) != 0 {
		return corruptManifest("%d stray bytes after the last op", len(p))
	}
	return nil
}

// replayManifest folds a manifest image into the live regions by id and the
// log floor, and returns the length of its valid prefix (shorter than the
// image when the last append was torn). An empty image is an empty store.
func replayManifest(data []byte) (regions map[int64]*regionDesc, logFloor int64, valid int, err error) {
	regions = make(map[int64]*regionDesc)
	if len(data) == 0 {
		return regions, 0, 0, nil
	}
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != manifestMagic {
		return nil, 0, 0, corruptManifest("bad magic")
	}
	valid = 4
	for p := data[4:]; len(p) >= 8; p = data[valid:] {
		n := uint64(binary.LittleEndian.Uint32(p[4:]))
		if n > uint64(len(p)-8) {
			break // the append stopped short
		}
		payload := p[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(p) {
			if 8+n == uint64(len(p)) {
				break // the last edit: a torn append
			}
			return nil, 0, 0, corruptManifest("edit at offset %d fails its checksum", valid)
		}
		if err := applyEditPayload(payload, regions, &logFloor); err != nil {
			return nil, 0, 0, err
		}
		valid += 8 + int(n)
	}
	if at := editBehind(data[valid:]); at >= 0 {
		return nil, 0, 0, corruptManifest("edit at offset %d is damaged: a whole edit follows it at offset %d", valid, valid+at)
	}
	return regions, logFloor, valid, nil
}

// editBehind looks through a tail the replay is about to discard as a torn
// append for a whole edit — a frame whose checksum verifies over a payload
// that decodes — and returns its offset, or -1. A torn append is a prefix
// of one edit and holds none; a tail that does was cut loose by a damaged
// length field, and ignoring it would silently undo the edits in it. The
// work is bounded: a tail that cannot be cleared within the budget counts
// as damaged.
func editBehind(tail []byte) int {
	budget := 4<<20 + 8*len(tail)
	for at := 1; at+8 < len(tail); at++ {
		n := uint64(binary.LittleEndian.Uint32(tail[at+4:]))
		if n < 2 || n > uint64(len(tail)-at-8) {
			continue
		}
		if budget -= int(n); budget < 0 {
			return at
		}
		payload := tail[at+8 : at+8+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tail[at:]) {
			continue
		}
		var floor int64
		if applyEditPayload(payload, make(map[int64]*regionDesc), &floor) == nil {
			return at
		}
	}
	return -1
}

// tableLayouts groups the live regions by table in key order and checks
// that each table's regions tile the whole key space.
func tableLayouts(regions map[int64]*regionDesc) (map[string][]*regionDesc, error) {
	tables := make(map[string][]*regionDesc)
	for _, d := range regions {
		tables[d.table] = append(tables[d.table], d)
	}
	for name, ds := range tables {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].start == nil || ds[j].start == nil {
				return ds[i].start == nil && ds[j].start != nil
			}
			return bytes.Compare(ds[i].start, ds[j].start) < 0
		})
		if ds[0].start != nil || ds[len(ds)-1].end != nil {
			return nil, corruptManifest("table %q does not cover the whole key space", name)
		}
		for i := 1; i < len(ds); i++ {
			if ds[i].start == nil || !bytes.Equal(ds[i-1].end, ds[i].start) {
				return nil, corruptManifest("table %q: regions %d and %d do not meet", name, ds[i-1].id, ds[i].id)
			}
		}
	}
	return tables, nil
}

// manifest is the append side.
type manifest struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte // reusable edit buffer, guarded by mu
}

// append writes one edit with a single write(2): pushed to the OS, like a
// WAL record, before anything that depends on it happens.
func (m *manifest) append(drops []int64, puts []regionDesc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = appendEdit(m.buf[:0], drops, puts)
	_, err := m.f.Write(m.buf)
	return err
}

// appendFloor writes the edit that moves the log floor to seq.
func (m *manifest) appendFloor(seq int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = appendFloorEdit(m.buf[:0], seq)
	_, err := m.f.Write(m.buf)
	return err
}

func (m *manifest) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.f.Close()
}
