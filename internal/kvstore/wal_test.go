package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.OpenTable("t")
	for i := 0; i < 500; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	for i := 0; i < 500; i += 3 {
		tbl.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover from the WAL alone.
	s2, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2 := s2.Table("t")
	if tbl2 == nil {
		t.Fatal("recovered store lost table")
	}
	rows := tbl2.Scan(nil, nil, nil, 0)
	want := 0
	for i := 0; i < 500; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("recovered %d rows, want %d", len(rows), want)
	}
	if v, ok := tbl2.Get([]byte("k0001")); !ok || string(v) != "v0001" {
		t.Fatalf("Get k0001 = %q, %v", v, ok)
	}
	if _, ok := tbl2.Get([]byte("k0003")); ok {
		t.Error("deleted key survived recovery")
	}
}

// Checkpoint turns the whole log into run files: afterwards no sealed
// segment is left, the active one is empty, and a restart replays nothing
// but what was written since.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.OpenTable("t")
	for i := 0; i < 200; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 100))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	walInfo, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if walInfo.Size() != 0 {
		t.Errorf("WAL size after checkpoint = %d, want 0", walInfo.Size())
	}
	if ps := s.PersistStats(); ps.WALSegments != 1 || ps.WALTailBytes != 0 || ps.RunFiles == 0 {
		t.Errorf("after checkpoint: %+v, want one empty segment and the rows in run files", ps)
	}
	// More writes after the checkpoint land in the fresh WAL.
	tbl.Put([]byte("post-checkpoint"), []byte("x"))
	s.Close()

	s2, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.WALRows != 1 || rec.RunFiles == 0 {
		t.Errorf("recovery replayed %d rows over %d run files, want the one post-checkpoint row over the flushed runs", rec.WALRows, rec.RunFiles)
	}
	rows := s2.Table("t").Scan(nil, nil, nil, 0)
	if len(rows) != 201 {
		t.Fatalf("recovered %d rows, want 201 (run files + post-checkpoint WAL)", len(rows))
	}
	if _, ok := s2.Table("t").Get([]byte("post-checkpoint")); !ok {
		t.Error("post-checkpoint write lost")
	}
}

// Checkpoint may run beside writers: nothing acknowledged before, during or
// after it is lost, and it still releases the log written before it began.
func TestCheckpointBesideWriters(t *testing.T) {
	dir := t.TempDir()
	o := NoNetworkOptions()
	o.MemtableFlushBytes = 16 << 10
	s, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.OpenTable("t")
	const writers, each = 4, 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tbl.Put([]byte(fmt.Sprintf("w%d-%05d", w, i)), bytes.Repeat([]byte{byte(w)}, 64))
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDir(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Table("t").Scan(nil, nil, nil, 0)); got != writers*each {
		t.Fatalf("recovered %d rows, want %d", got, writers*each)
	}
}

func TestTornWALTailIsIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.OpenTable("t")
	for i := 0; i < 50; i++ {
		tbl.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("value"))
	}
	s.Close()

	// Simulate a crash mid-append: chop bytes off the end of the log.
	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatalf("recovery after torn tail failed: %v", err)
	}
	defer s2.Close()
	rows := s2.Table("t").Scan(nil, nil, nil, 0)
	if len(rows) != 49 {
		t.Fatalf("recovered %d rows, want 49 (last record torn)", len(rows))
	}
}

func TestCorruptWALRecordStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenDir(dir, NoNetworkOptions())
	tbl := s.OpenTable("t")
	tbl.Put([]byte("a"), []byte("1"))
	tbl.Put([]byte("b"), []byte("2"))
	s.Close()

	// Flip a byte in the middle of the log (second record's payload).
	walPath := filepath.Join(dir, walFileName)
	data, _ := os.ReadFile(walPath)
	data[len(data)-2] ^= 0xFF
	os.WriteFile(walPath, data, 0o644)

	s2, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// First record must survive; the corrupted one is dropped.
	if _, ok := s2.Table("t").Get([]byte("a")); !ok {
		t.Error("record before corruption lost")
	}
	if _, ok := s2.Table("t").Get([]byte("b")); ok {
		t.Error("corrupted record should not replay")
	}
}

// A directory checkpointed by the snapshot-writing versions is refused
// outright: there is no second loader.
func TestLegacySnapshotDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacySnapshotFile), []byte("tMAN"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, NoNetworkOptions()); err == nil || !strings.Contains(err.Error(), legacySnapshotFile) {
		t.Fatalf("OpenDir on a snapshot directory: %v, want a refusal naming %s", err, legacySnapshotFile)
	}
}

// A directory holding only a wal.log — what every version before run files
// left — opens through the same path: empty manifest, one segment.
func TestLogOnlyDirectoryOpens(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := w.append(opPut, "t", []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Table("t").Scan(nil, nil, nil, 0)); got != 20 {
		t.Fatalf("recovered %d rows from a log-only directory, want 20", got)
	}
}

func TestCheckpointRequiresDurableStore(t *testing.T) {
	s := Open(NoNetworkOptions())
	if err := s.Checkpoint(); err == nil {
		t.Error("in-memory store accepted Checkpoint")
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync on in-memory store should be a no-op, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on in-memory store should be a no-op, got %v", err)
	}
}

func TestDurableSurvivesManyTables(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenDir(dir, NoNetworkOptions())
	for i := 0; i < 5; i++ {
		tbl := s.OpenTable(fmt.Sprintf("table-%d", i))
		for j := 0; j < 50; j++ {
			tbl.Put([]byte(fmt.Sprintf("k%03d", j)), []byte(fmt.Sprintf("t%d-%d", i, j)))
		}
	}
	s.Checkpoint()
	s.OpenTable("table-0").Put([]byte("extra"), []byte("1"))
	s.Close()

	s2, err := OpenDir(dir, NoNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 5; i++ {
		rows := s2.Table(fmt.Sprintf("table-%d", i)).Scan(nil, nil, nil, 0)
		want := 50
		if i == 0 {
			want = 51
		}
		if len(rows) != want {
			t.Errorf("table-%d recovered %d rows, want %d", i, len(rows), want)
		}
	}
}
