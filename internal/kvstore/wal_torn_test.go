package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildWAL writes n fully-synced records and returns the log bytes plus the
// offset where the final record begins.
func buildWAL(t *testing.T, dir string, n int) (data []byte, lastRecOff int) {
	t.Helper()
	path := filepath.Join(dir, walFileName)
	w, err := openWAL(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if _, _, err := w.append(opPut, "t", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	lastRecOff = int(fi.Size())
	if _, _, err := w.append(opPut, "t", []byte(fmt.Sprintf("k%03d", n-1)), []byte(fmt.Sprintf("v%03d", n-1))); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, lastRecOff
}

// replayCount replays a WAL image and returns how many records were applied;
// it fails the test if any replayed record is not an intact prefix record.
func replayCount(t *testing.T, data []byte) int {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	applied := 0
	_, err := replayWAL(path, func(rec walRecord) {
		if rec.op != opPut || rec.table != "t" {
			t.Fatalf("replayed corrupt record: op=%d table=%q", rec.op, rec.table)
		}
		want := fmt.Sprintf("k%03d", applied)
		if string(rec.key) != want {
			t.Fatalf("record %d has key %q, want %q", applied, rec.key, want)
		}
		applied++
	})
	if err != nil {
		t.Fatalf("replayWAL must never error on torn tails: %v", err)
	}
	return applied
}

// TestWALTornWriteEveryOffset truncates the log at every byte offset of the
// final record and asserts replay recovers exactly the fully-synced prefix,
// never panicking and never inventing records.
func TestWALTornWriteEveryOffset(t *testing.T) {
	const records = 8
	data, lastOff := buildWAL(t, t.TempDir(), records)
	for cut := lastOff; cut <= len(data); cut++ {
		got := replayCount(t, data[:cut])
		want := records - 1
		if cut == len(data) {
			want = records
		}
		if got != want {
			t.Fatalf("truncated at %d/%d: replayed %d records, want %d", cut, len(data), got, want)
		}
	}
	// Torn inside the synced prefix too: every offset of the whole file must
	// replay some prefix without panicking.
	for cut := 0; cut < lastOff; cut += 7 {
		if got := replayCount(t, data[:cut]); got > records-1 {
			t.Fatalf("truncated at %d: replayed %d records from a %d-record prefix", cut, got, records-1)
		}
	}
}

// TestWALBitFlipFinalRecord flips every bit of every byte of the final
// record and asserts replay never panics and always recovers the fully
// synced prefix (the flipped record must be rejected; a flipped length field
// must not cause a huge allocation or an invented record).
func TestWALBitFlipFinalRecord(t *testing.T) {
	const records = 8
	data, lastOff := buildWAL(t, t.TempDir(), records)
	for off := lastOff; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			got := replayCount(t, mut)
			// CRC catches any single-bit flip in the final record, so the
			// synced prefix — and nothing more — must survive.
			if got != records-1 {
				t.Fatalf("flip byte %d bit %d: replayed %d records, want %d", off, bit, got, records-1)
			}
		}
	}
}

// TestWALBitFlipMidLog flips bytes inside the synced prefix: replay must
// stop at the corrupt record (recovering only earlier records) and never
// panic.
func TestWALBitFlipMidLog(t *testing.T) {
	const records = 8
	data, _ := buildWAL(t, t.TempDir(), records)
	for off := 0; off < len(data); off += 5 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		got := replayCount(t, mut)
		if got > records {
			t.Fatalf("flip at %d: replayed %d records from a %d-record log", off, got, records)
		}
	}
}

// buildBatchWAL writes `singles` synced single-put records followed by one
// group-commit batch record of batchRows rows, returning the log bytes and
// the offset where the batch record begins.
func buildBatchWAL(t *testing.T, dir string, singles, batchRows int) (data []byte, batchOff int) {
	t.Helper()
	path := filepath.Join(dir, walFileName)
	w, err := openWAL(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < singles; i++ {
		if _, _, err := w.append(opPut, "t", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	batchOff = int(fi.Size())
	rows := make([]KV, batchRows)
	for i := range rows {
		rows[i] = KV{Key: []byte(fmt.Sprintf("b%03d", i)), Value: []byte(fmt.Sprintf("w%03d", i))}
	}
	if _, _, err := w.appendBatch("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, batchOff
}

// replayBatchCount replays a WAL image holding single puts plus at most one
// batch record, returning (singles applied, batch rows applied). The batch
// must be all-or-nothing: a partial batch row set fails the test.
func replayBatchCount(t *testing.T, data []byte, batchRows int) (singles, rows int) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := replayWAL(path, func(rec walRecord) {
		switch rec.op {
		case opPut:
			singles++
		case opBatch:
			if len(rec.rows) != batchRows {
				t.Fatalf("partial batch replayed: %d rows, want %d or nothing", len(rec.rows), batchRows)
			}
			for i, kv := range rec.rows {
				if want := fmt.Sprintf("b%03d", i); string(kv.Key) != want {
					t.Fatalf("batch row %d has key %q, want %q", i, kv.Key, want)
				}
			}
			rows += len(rec.rows)
		default:
			t.Fatalf("replayed corrupt record: op=%d", rec.op)
		}
	})
	if err != nil {
		t.Fatalf("replayWAL must never error on torn tails: %v", err)
	}
	return singles, rows
}

// TestWALTornBatchEveryOffset truncates the log at every byte offset of a
// trailing batch record: replay must recover exactly the synced single-put
// prefix and never a partial batch — the batch lands all-or-nothing.
func TestWALTornBatchEveryOffset(t *testing.T) {
	const singlesN, batchN = 5, 12
	data, batchOff := buildBatchWAL(t, t.TempDir(), singlesN, batchN)
	for cut := batchOff; cut <= len(data); cut++ {
		gotSingles, gotRows := replayBatchCount(t, data[:cut], batchN)
		if gotSingles != singlesN {
			t.Fatalf("truncated at %d: replayed %d singles, want %d", cut, gotSingles, singlesN)
		}
		wantRows := 0
		if cut == len(data) {
			wantRows = batchN
		}
		if gotRows != wantRows {
			t.Fatalf("truncated at %d/%d: replayed %d batch rows, want %d", cut, len(data), gotRows, wantRows)
		}
	}
}

// TestWALBitFlipInBatch flips every bit of every byte of the batch record:
// CRC must reject the whole batch (no partial rows, no invented records, no
// huge allocations from a flipped count or length field) while the synced
// prefix survives.
func TestWALBitFlipInBatch(t *testing.T) {
	const singlesN, batchN = 5, 12
	data, batchOff := buildBatchWAL(t, t.TempDir(), singlesN, batchN)
	for off := batchOff; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			gotSingles, gotRows := replayBatchCount(t, mut, batchN)
			if gotSingles != singlesN || gotRows != 0 {
				t.Fatalf("flip byte %d bit %d: replayed %d singles + %d batch rows, want %d + 0",
					off, bit, gotSingles, gotRows, singlesN)
			}
		}
	}
}
