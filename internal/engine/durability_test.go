package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/kvstore"
	"github.com/tman-db/tman/internal/model"
)

// A durable engine must recover every trajectory and answer all query
// types identically after a restart.
func TestDurableEngineRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.BufferThreshold = 3 // exercise buffered raw codes across restarts

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))
	var trajs []*model.Trajectory
	for i := 0; i < 150; i++ {
		tr := genTrajectory(rng, fmt.Sprintf("obj-%d", i%10), fmt.Sprintf("t%04d", i))
		// Cluster half the data so elements share shapes (buffer activity).
		if i%2 == 0 {
			for j := range tr.Points {
				tr.Points[j].X = 116 + math.Mod(tr.Points[j].X, 0.3)
				tr.Points[j].Y = 39.5 + math.Mod(tr.Points[j].Y, 0.3)
			}
		}
		trajs = append(trajs, tr)
		if err := e.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart.
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Rows() != 150 {
		t.Fatalf("recovered Rows = %d, want 150", e2.Rows())
	}
	for iter := 0; iter < 10; iter++ {
		qs := int64(1_500_000_000_000) + rng.Int63n(30*24*3600_000)
		q := model.TimeRange{Start: qs, End: qs + 12*3600_000}
		got, _, err := e2.TemporalRangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		var want []*model.Trajectory
		for _, tr := range trajs {
			if tr.TimeRange().Intersects(q) {
				want = append(want, tr)
			}
		}
		sameTIDs(t, fmt.Sprintf("recovered TRQ iter %d", iter), tids(got), tids(want))

		cx := 116 + rng.Float64()*0.3
		cy := 39.5 + rng.Float64()*0.3
		sr := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + 0.1, MaxY: cy + 0.1}
		gotS, _, err := e2.SpatialRangeQuery(sr)
		if err != nil {
			t.Fatal(err)
		}
		var wantS []*model.Trajectory
		for _, tr := range trajs {
			if tr.IntersectsRect(sr) {
				wantS = append(wantS, tr)
			}
		}
		sameTIDs(t, fmt.Sprintf("recovered SRQ iter %d", iter), tids(gotS), tids(wantS))
	}
}

// Writes after a checkpoint survive the next restart; the checkpoint must
// not lose buffered shape state.
func TestDurableEngineCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(409))
	var trajs []*model.Trajectory
	for i := 0; i < 60; i++ {
		tr := genTrajectory(rng, "o", fmt.Sprintf("pre%03d", i))
		trajs = append(trajs, tr)
		if err := e.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tr := genTrajectory(rng, "o", fmt.Sprintf("post%03d", i))
		trajs = append(trajs, tr)
		if err := e.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Rows() != 100 {
		t.Fatalf("recovered Rows = %d, want 100", e2.Rows())
	}
	all, _, err := e2.SpatialRangeQuery(testBoundary)
	if err != nil {
		t.Fatal(err)
	}
	sameTIDs(t, "checkpoint cycle", tids(all), tids(trajs))
}

// Deletes must survive restarts (tombstones in the WAL).
func TestDurableEngineDeletePersists(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DataDir = dir

	e, _ := New(cfg)
	rng := rand.New(rand.NewSource(419))
	tr := genTrajectory(rng, "o", "victim")
	keep := genTrajectory(rng, "o", "keeper")
	e.Put(tr)
	e.Put(keep)
	if err := e.Delete(tr); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Rows() != 1 {
		t.Fatalf("recovered Rows = %d, want 1", e2.Rows())
	}
	all, _, _ := e2.SpatialRangeQuery(testBoundary)
	if len(all) != 1 || all[0].TID != "keeper" {
		t.Fatalf("recovered rows = %v", tids(all))
	}
}

// Reopening without a checkpoint replays the whole log, and replay already
// flushes memtables in the background while New is still running. The fence
// extractors are part of how the store's tables are opened, so those
// flushes race with nothing (run under -race) and the recovered runs carry
// fences like any other: a fence-aware query consults them.
func TestReopenUnderReplayFlushesIsRaceFree(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	cfg.KV.MemtableFlushBytes = 8 << 10 // several flushes per table during replay

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(431))
	var trajs []*model.Trajectory
	for i := 0; i < 600; i++ {
		trajs = append(trajs, genTrajectory(rng, fmt.Sprintf("obj-%d", i%10), fmt.Sprintf("t%04d", i)))
	}
	for i := 0; i < len(trajs); i += 100 {
		if err := e.BatchPut(trajs[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil { // no checkpoint: the log holds everything
		t.Fatal(err)
	}

	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e2.Store().Quiesce()
	if st := e2.Store().Stats().Snapshot(); st.Flushes < 4 {
		t.Fatalf("replay flushed %d memtables, want several", st.Flushes)
	}
	before := e2.Store().Stats().Snapshot()
	for iter := 0; iter < 10; iter++ {
		qs := int64(1_500_000_000_000) + rng.Int63n(30*24*3600_000)
		q := model.TimeRange{Start: qs, End: qs + 12*3600_000}
		got, _, err := e2.TemporalRangeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		cx := testBoundary.MinX + rng.Float64()*testBoundary.Width()*0.9
		cy := testBoundary.MinY + rng.Float64()*testBoundary.Height()*0.9
		sr := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + 0.4, MaxY: cy + 0.4}
		gotS, _, err := e2.SpatialRangeQuery(sr)
		if err != nil {
			t.Fatal(err)
		}
		var want, wantS []*model.Trajectory
		for _, tr := range trajs {
			if tr.TimeRange().Intersects(q) {
				want = append(want, tr)
			}
			if tr.IntersectsRect(sr) {
				wantS = append(wantS, tr)
			}
		}
		sameTIDs(t, fmt.Sprintf("replayed TRQ iter %d", iter), tids(got), tids(want))
		sameTIDs(t, fmt.Sprintf("replayed SRQ iter %d", iter), tids(gotS), tids(wantS))
	}
	if d := kvstore.Diff(before, e2.Store().Stats().Snapshot()); d.FenceBytesRead == 0 {
		t.Fatal("queries consulted no fences: runs flushed during replay were built without them")
	}
}
