package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// copyDir copies the files of dir into a fresh temporary directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(image, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// A re-encode pass is several writes to several tables, and a kill may fall
// between any two of them: after the marker row, after the directory update
// (buffered-shape rows not yet deleted, rows not yet moved), and in the
// middle of moving a row (new key and mappings written, old row not yet
// deleted). Each time, the reopened engine must finish the pass and answer
// every query shape with exactly the trajectories acknowledged before the
// kill — both with the spatial index as primary and with the temporal one,
// whose pass re-keys the spatial secondary instead.
func TestReencodeSurvivesKillAtEveryBoundary(t *testing.T) {
	// Clustered trajectories: few elements, many shapes each, so passes run
	// often and move rows that earlier passes already placed.
	clustered := func(rng *rand.Rand, i int) *model.Trajectory {
		tr := genTrajectory(rng, fmt.Sprintf("obj-%d", i%7), fmt.Sprintf("t%04d", i))
		for j := range tr.Points {
			tr.Points[j].X = 116 + math.Mod(tr.Points[j].X, 0.25)
			tr.Points[j].Y = 39.5 + math.Mod(tr.Points[j].Y, 0.25)
		}
		return tr
	}
	for _, primary := range []string{"spatial", "temporal"} {
		for _, point := range []string{"reencode-marked", "directory-updated", "row-moving"} {
			for _, nth := range []int{1, 4, 11} {
				primary, point, nth := primary, point, nth
				t.Run(fmt.Sprintf("%s/%s/%d", primary, point, nth), func(t *testing.T) {
					t.Parallel()
					cfg := testConfig()
					cfg.DataDir = t.TempDir()
					cfg.BufferThreshold = 2
					cfg.KV.MemtableFlushBytes = 8 << 10 // rows sit in run files, memtables and the log
					if primary == "temporal" {
						cfg.Primary = KindTR
					}
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					killed, seen := false, 0
					e.crashHook = func(at string) {
						if at == point && !killed {
							if seen++; seen == nth {
								killed = true
								// What a kill here leaves: with the flusher
								// settled and no other writer, a plain copy.
								e.Store().Quiesce()
								cfg.DataDir = copyDir(t, cfg.DataDir)
							}
						}
					}
					rng := rand.New(rand.NewSource(433))
					var acked []*model.Trajectory
					for i := 0; i < 400 && !killed; i++ {
						tr := clustered(rng, i)
						if err := e.Put(tr); err != nil {
							t.Fatal(err)
						}
						if !killed { // the put in flight at the kill was never acknowledged
							acked = append(acked, tr)
						}
					}
					if !killed {
						t.Fatalf("workload passed %s only %d times", point, seen)
					}
					e.Close()

					e2, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer e2.Close()
					if e2.Rows() != int64(len(acked)) {
						t.Errorf("recovered Rows = %d, want the %d acknowledged", e2.Rows(), len(acked))
					}
					all, _, err := e2.SpatialRangeQuery(testBoundary)
					if err != nil {
						t.Fatal(err)
					}
					sameTIDs(t, "whole-boundary spatial query", tids(all), tids(acked))
					everything := model.TimeRange{Start: 0, End: math.MaxInt64 / 2}
					all, _, err = e2.TemporalRangeQuery(everything)
					if err != nil {
						t.Fatal(err)
					}
					sameTIDs(t, "whole-time temporal query", tids(all), tids(acked))
					all, _, err = e2.SpatioTemporalQuery(testBoundary, everything)
					if err != nil {
						t.Fatal(err)
					}
					sameTIDs(t, "spatio-temporal query", tids(all), tids(acked))
					for _, oid := range []string{"obj-0", "obj-3"} {
						var want []*model.Trajectory
						for _, tr := range acked {
							if tr.OID == oid {
								want = append(want, tr)
							}
						}
						got, _, err := e2.IDTemporalQuery(oid, everything)
						if err != nil {
							t.Fatal(err)
						}
						sameTIDs(t, "id-temporal query "+oid, tids(got), tids(want))
					}
					// Small windows go through the element's new codes, not a
					// whole-space scan.
					for iter := 0; iter < 20; iter++ {
						cx, cy := 116+rng.Float64()*0.2, 39.5+rng.Float64()*0.2
						sr := geo.Rect{MinX: cx, MinY: cy, MaxX: cx + 0.05, MaxY: cy + 0.05}
						got, _, err := e2.SpatialRangeQuery(sr)
						if err != nil {
							t.Fatal(err)
						}
						var want []*model.Trajectory
						for _, tr := range acked {
							if tr.IntersectsRect(sr) {
								want = append(want, tr)
							}
						}
						sameTIDs(t, fmt.Sprintf("window %d", iter), tids(got), tids(want))
					}
					// And the engine goes on: more writes, more passes.
					for i := 400; i < 460; i++ {
						tr := clustered(rng, i)
						if err := e2.Put(tr); err != nil {
							t.Fatal(err)
						}
						acked = append(acked, tr)
					}
					all, _, err = e2.SpatialRangeQuery(testBoundary)
					if err != nil {
						t.Fatal(err)
					}
					sameTIDs(t, "after writing on", tids(all), tids(acked))
				})
			}
		}
	}
}

// recoverState counts rows inside the region scanners instead of copying
// the primary table out, and records the restart as a "recover" job.
func TestRecoverStateCountsWithoutMaterialising(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(439))
	for i := 0; i < 300; i++ {
		if err := e.Put(genTrajectory(rng, "o", fmt.Sprintf("t%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := e.minTR.Load(), e.maxTR.Load()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Rows() != 300 || e2.minTR.Load() != lo || e2.maxTR.Load() != hi {
		t.Errorf("recovered rows=%d TR=[%d,%d], want 300 and [%d,%d]", e2.Rows(), e2.minTR.Load(), e2.maxTR.Load(), lo, hi)
	}
	if st := e2.Store().Stats().Snapshot(); st.RowsReturned != 0 && st.RowsReturned >= st.RowsScanned {
		t.Errorf("recovery returned %d of %d scanned rows; the count must pass none out", st.RowsReturned, st.RowsScanned)
	}
	ks := e2.Jobs().KindStats("recover")
	rec := e2.Store().Recovery()
	if ks.Jobs != 1 || ks.BytesRead != rec.RunFileBytes || ks.BytesRead == 0 || ks.Items != 300 {
		t.Errorf("recover job ledger %+v, recovery %+v", ks, rec)
	}
	if e2.RecoverDuration() <= 0 {
		t.Error("no recover duration recorded")
	}
}
