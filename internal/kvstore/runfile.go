package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/tman-db/tman/internal/compress"
)

// Run files. A blockRun is written once, whole, when it joins the run set
// of a durable leader region, and never changed afterwards:
//
//	u32     magic "tRN1"
//	blocks  the run's encoded blocks back to back (each carries its own crc)
//	meta    uvarint entry count | uvarint raw bytes | uvarint block count
//	        per block: uvarint encoded length | uvarint entry count |
//	                   uvarint first-key length | first key
//	        uvarint bloom k | uvarint bloom word count | words (u64 each)
//	        uvarint fence blob length | fence blob
//	u64     offset of meta
//	u32     crc32c over everything before it
//
// The trailing checksum covers the whole file, so a load verifies it in one
// pass before trusting any length in it; loaded blocks, first keys and the
// fence blob alias the one buffer the file was read into. What a file does
// not hold — the fragment group id and the run's place in its region's
// stack — is the manifest's to say.

const runFileMagic = 0x314e5274 // "tRN1"

// ErrRunFileCorrupt is returned (wrapped, with the file name) by OpenDir
// when a run file named by the manifest is missing, truncated, fails its
// checksum or does not parse.
var ErrRunFileCorrupt = errors.New("kvstore: corrupt or missing run file")

func corruptRunFile(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRunFileCorrupt, fmt.Sprintf(format, args...))
}

// writeRunFile streams br to w in the layout above and returns the bytes
// written. Only the meta section is assembled in memory.
func writeRunFile(w io.Writer, br *blockRun) (int64, error) {
	crc := crc32.New(crcTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	var n int64
	put := func(b []byte) error {
		n += int64(len(b))
		_, err := bw.Write(b)
		return err
	}
	if err := put(binary.LittleEndian.AppendUint32(nil, runFileMagic)); err != nil {
		return n, err
	}
	for _, blk := range br.blocks {
		if err := put(blk); err != nil {
			return n, err
		}
	}
	metaOff := n
	meta := compress.AppendUvarint(nil, uint64(br.count))
	meta = compress.AppendUvarint(meta, uint64(br.rawBytes))
	meta = compress.AppendUvarint(meta, uint64(len(br.blocks)))
	for i, blk := range br.blocks {
		meta = compress.AppendUvarint(meta, uint64(len(blk)))
		meta = compress.AppendUvarint(meta, uint64(br.index[i].count))
		meta = compress.AppendUvarint(meta, uint64(len(br.index[i].firstKey)))
		meta = append(meta, br.index[i].firstKey...)
	}
	if f := br.filter; f != nil {
		meta = compress.AppendUvarint(meta, uint64(f.k))
		meta = compress.AppendUvarint(meta, uint64(len(f.words)))
		for _, word := range f.words {
			meta = binary.LittleEndian.AppendUint64(meta, word)
		}
	} else {
		meta = append(meta, 0, 0)
	}
	meta = compress.AppendUvarint(meta, uint64(len(br.fenceBlob)))
	meta = append(meta, br.fenceBlob...)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(metaOff))
	if err := put(meta); err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	// The checksum itself bypasses the hashing writer.
	sum := binary.LittleEndian.AppendUint32(nil, crc.Sum32())
	_, err := w.Write(sum)
	return n + 4, err
}

// decodeRunFile rebuilds a run from the bytes of its file. The run keeps
// data alive: its blocks, index keys and fence blob are sub-slices of it.
// Any truncation, bit flip or inconsistent length yields ErrRunFileCorrupt;
// nothing is allocated from a length the checksum has not vouched for, and
// every length is still bounded by the bytes present.
func decodeRunFile(cfg *blockConfig, data []byte) (*blockRun, error) {
	const trailer = 8 + 4
	if len(data) < 4+trailer {
		return nil, corruptRunFile("%d bytes is shorter than an empty run file", len(data))
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(data[len(data)-4:]); got != want {
		return nil, corruptRunFile("checksum %08x, file says %08x", got, want)
	}
	if binary.LittleEndian.Uint32(data) != runFileMagic {
		return nil, corruptRunFile("bad magic")
	}
	metaOff := binary.LittleEndian.Uint64(body[len(body)-8:])
	if metaOff < 4 || metaOff > uint64(len(body)-8) {
		return nil, corruptRunFile("meta offset %d outside the file", metaOff)
	}
	blocks := body[4:metaOff]
	p := body[metaOff : len(body)-8]
	uv := func(what string) (int, error) {
		v, n := compress.Uvarint(p)
		if n <= 0 || v > uint64(len(data)) {
			return 0, corruptRunFile("bad %s", what)
		}
		p = p[n:]
		return int(v), nil
	}
	count, err := uv("entry count")
	if err != nil {
		return nil, err
	}
	// Raw bytes are not bounded by the file size (blocks prefix-compress
	// their keys), so read them unclamped.
	raw64, n := compress.Uvarint(p)
	if n <= 0 || raw64 > 1<<50 {
		return nil, corruptRunFile("bad raw byte count")
	}
	p = p[n:]
	nBlocks, err := uv("block count")
	if err != nil {
		return nil, err
	}
	// A block's index row takes at least three bytes of meta.
	if nBlocks > len(p)/3 {
		return nil, corruptRunFile("block count %d exceeds the index present", nBlocks)
	}
	br := &blockRun{
		cfg:      cfg,
		id:       blockRunSeq.Add(1),
		blocks:   make([][]byte, nBlocks),
		index:    make([]blockIndexEntry, nBlocks),
		count:    count,
		rawBytes: int(raw64),
	}
	entries := 0
	for i := 0; i < nBlocks; i++ {
		encLen, err := uv("block length")
		if err != nil {
			return nil, err
		}
		if encLen < 5 || encLen > len(blocks) {
			return nil, corruptRunFile("block %d of %d bytes does not fit", i, encLen)
		}
		br.blocks[i], blocks = blocks[:encLen:encLen], blocks[encLen:]
		br.encBytes += encLen
		cnt, err := uv("block entry count")
		if err != nil {
			return nil, err
		}
		keyLen, err := uv("first-key length")
		if err != nil {
			return nil, err
		}
		if cnt == 0 || keyLen > len(p) {
			return nil, corruptRunFile("bad index row %d", i)
		}
		br.index[i] = blockIndexEntry{firstKey: p[:keyLen:keyLen], count: cnt}
		p = p[keyLen:]
		if i > 0 && bytes.Compare(br.index[i-1].firstKey, br.index[i].firstKey) >= 0 {
			return nil, corruptRunFile("index row %d out of order", i)
		}
		entries += cnt
	}
	if len(blocks) != 0 || entries != count {
		return nil, corruptRunFile("blocks and index disagree (%d stray bytes, %d entries for a count of %d)", len(blocks), entries, count)
	}
	k, err := uv("bloom probes")
	if err != nil {
		return nil, err
	}
	nWords, err := uv("bloom size")
	if err != nil {
		return nil, err
	}
	if nWords > len(p)/8 || (nWords > 0) != (k > 0) || k > 30 {
		return nil, corruptRunFile("bad bloom filter (k=%d, %d words)", k, nWords)
	}
	if nWords > 0 {
		f := &bloom{words: make([]uint64, nWords), nbits: uint64(nWords) * 64, k: uint32(k)}
		for i := range f.words {
			f.words[i] = binary.LittleEndian.Uint64(p[i*8:])
		}
		br.filter = f
		p = p[nWords*8:]
	}
	fenceLen, err := uv("fence blob length")
	if err != nil {
		return nil, err
	}
	if fenceLen != len(p) {
		return nil, corruptRunFile("fence blob of %d bytes, %d present", fenceLen, len(p))
	}
	if fenceLen > 0 && cfg.fence != nil {
		br.setFences(p[:fenceLen:fenceLen])
	}
	return br, nil
}
