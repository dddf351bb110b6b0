package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/similarity"
	"github.com/tman-db/tman/internal/workload"
)

// oracle recomputes answers by brute force over the dataset the benchmark
// generated. The predicates are the ones internal/engine/engine_test.go
// checks the engine against: closed time-range intersection, exact
// geometry∩rectangle, object id equality, and for the two top-k queries
// "every returned trajectory is no farther than the true k-th distance"
// (ties make a TID comparison meaningless there).
type oracle struct {
	space *geo.Space
	trajs []*model.Trajectory // the preloaded set
	mbr   []geo.Rect
	tr    []model.TimeRange
	byTID map[string]*model.Trajectory // every generated trajectory by its ordinal-0 TID
	// preloaded marks the trajectories stored before the window. One of the
	// ingest stream may or may not be stored when a read runs, so it is
	// sound in an answer but never required.
	preloaded map[*model.Trajectory]bool
}

func newOracle(ds, stream *workload.Dataset) *oracle {
	o := &oracle{
		space:     geo.MustSpace(ds.Boundary),
		trajs:     ds.Trajs,
		byTID:     make(map[string]*model.Trajectory, len(ds.Trajs)),
		preloaded: make(map[*model.Trajectory]bool, len(ds.Trajs)),
	}
	for _, t := range ds.Trajs {
		o.mbr = append(o.mbr, t.MBR())
		o.tr = append(o.tr, t.TimeRange())
		o.byTID[t.TID] = t
		o.preloaded[t] = true
	}
	if stream != nil {
		for _, t := range stream.Trajs {
			o.byTID[t.TID] = t
		}
	}
	return o
}

// lookup resolves a returned TID to the generated trajectory it must be.
func (o *oracle) lookup(tid string) *model.Trajectory {
	if len(tid) <= ordinalDigits {
		return nil
	}
	return o.byTID[tidWithOrdinal(tid, 0)]
}

// edgeBand is the width, in degrees (about a metre), of the band around a
// query window's edges inside which the oracle accepts either answer. The
// store keeps coordinates on a 1e-7° grid and its per-row sketch boxes on a
// 1e-7 grid of the *normalized* boundary (up to 3.5e-6° here), rounded to
// nearest rather than outward, so a trajectory that touches a window by
// less than that can legitimately be judged either way by the engine.
const edgeBand = 1e-5

// matches is the range-query predicate of the op over one trajectory, with
// the op's window grown by grow degrees (negative shrinks it).
func matches(q *op, t *model.Trajectory, grow float64) bool {
	rect := q.rect.Expand(grow)
	inRect := func() bool { return rect.Valid() && t.IntersectsRect(rect) }
	switch q.kind {
	case opTime:
		return t.TimeRange().Intersects(q.tr)
	case opSpace:
		return inRect()
	case opSpaceTime:
		return t.TimeRange().Intersects(q.tr) && inRect()
	case opObject:
		return t.OID == q.oid && t.TimeRange().Intersects(q.tr)
	}
	return false
}

// expected returns the TIDs of the preloaded trajectories a range query
// must return (they satisfy it clear of the edge band) and may return (they
// satisfy it with the band added). The bounding-box and time-range
// pre-tests only skip trajectories the exact predicate would reject.
func (o *oracle) expected(q *op) (must, may map[string]bool) {
	must, may = map[string]bool{}, map[string]bool{}
	spatial := q.kind == opSpace || q.kind == opSpaceTime
	temporal := q.kind != opSpace
	outer := q.rect.Expand(edgeBand)
	for i, t := range o.trajs {
		if spatial && !o.mbr[i].Intersects(outer) {
			continue
		}
		if temporal && !o.tr[i].Intersects(q.tr) {
			continue
		}
		if matches(q, t, edgeBand) {
			may[t.TID] = true
			if !spatial || matches(q, t, -edgeBand) {
				must[t.TID] = true
			}
		}
	}
	return must, may
}

func (o *oracle) normalize(pts []model.Point) []model.Point {
	out := make([]model.Point, len(pts))
	for i, p := range pts {
		x, y := o.space.Normalize(p.X, p.Y)
		out[i] = model.Point{X: x, Y: y, T: p.T}
	}
	return out
}

// pointDist is the minimum normalized distance from (nx, ny) to the
// trajectory's segments — the distance /query/nearest ranks by.
func (o *oracle) pointDist(nx, ny float64, pts []model.Point) float64 {
	n := o.normalize(pts)
	if len(n) == 1 {
		return math.Hypot(nx-n[0].X, ny-n[0].Y)
	}
	best := math.Inf(1)
	for i := 1; i < len(n); i++ {
		d := geo.PointSegmentDist(nx, ny, geo.Segment{X1: n[i-1].X, Y1: n[i-1].Y, X2: n[i].X, Y2: n[i].Y})
		if d < best {
			best = d
		}
	}
	return best
}

// distance returns the op's ranking distance to one trajectory.
func (o *oracle) distance(q *op, nq []model.Point, t *model.Trajectory) float64 {
	if q.kind == opNearest {
		nx, ny := o.space.Normalize(q.x, q.y)
		return o.pointDist(nx, ny, t.Points)
	}
	return similarity.Distance(similarity.Frechet, nq, o.normalize(t.Points))
}

// kthDistance is the true k-th smallest distance over the preloaded set
// (the similarity query excludes the query trajectory itself).
func (o *oracle) kthDistance(q *op, k int) float64 {
	var nq []model.Point
	if q.kind == opSimilar {
		nq = o.normalize(q.query.Points)
	}
	ds := make([]float64, 0, len(o.trajs))
	for _, t := range o.trajs {
		if q.kind == opSimilar && t.TID == q.query.TID {
			continue
		}
		ds = append(ds, o.distance(q, nq, t))
	}
	sort.Float64s(ds)
	if len(ds) == 0 {
		return math.Inf(1)
	}
	if k > len(ds) {
		k = len(ds)
	}
	return ds[k-1]
}

// answer is what a sender keeps of a response it decoded for checking.
type answer struct {
	op      *op
	status  int
	partial bool
	tids    []string
	// badPayload names the first returned trajectory whose oid or points
	// differ from the generated ones ("" when all match).
	badPayload string
}

// digest decodes a query response into an answer, comparing every returned
// trajectory with the generated one of the same TID.
func (o *oracle) digest(q *op, status int, resp *httpapi.QueryResponse) answer {
	a := answer{op: q, status: status, partial: resp.Partial}
	for _, tj := range resp.Trajectories {
		a.tids = append(a.tids, tj.TID)
		if a.badPayload != "" {
			continue
		}
		known := o.lookup(tj.TID)
		if known == nil || known.OID != tj.OID || len(known.Points) != len(tj.Points) {
			a.badPayload = tj.TID
			continue
		}
		for i, p := range tj.Points {
			if kp := known.Points[i]; kp.X != p.X || kp.Y != p.Y || kp.T != p.T {
				a.badPayload = tj.TID
				break
			}
		}
	}
	if resp.Count != len(resp.Trajectories) && a.badPayload == "" {
		a.badPayload = fmt.Sprintf("count=%d with %d trajectories", resp.Count, len(resp.Trajectories))
	}
	return a
}

// verdict is the oracle's judgement of one answer: reason is "" when it is
// right; onlyMissing is set when the sole defect is a preloaded trajectory
// absent from the answer (the defect a re-ask after the window can tell
// from a lasting one).
type verdict struct {
	reason      string
	onlyMissing bool
}

// verify checks one decoded answer. exact demands the preloaded set exactly
// (read-only workloads); otherwise the answer must be sound — every
// returned trajectory known and satisfying the query — and complete over
// the preloaded set, because trajectories ingested during the window may
// legitimately appear.
func (o *oracle) verify(a answer, exact bool) verdict {
	q := a.op
	name := kindNames[q.kind]
	switch {
	case a.status < 200 || a.status > 299:
		return verdict{reason: fmt.Sprintf("%s: status %d", name, a.status)}
	case a.partial:
		return verdict{reason: name + ": partial=true"}
	case a.badPayload != "":
		return verdict{reason: fmt.Sprintf("%s: payload mismatch at %s", name, a.badPayload)}
	}
	seen := make(map[string]bool, len(a.tids))
	for _, tid := range a.tids {
		if seen[tid] {
			return verdict{reason: fmt.Sprintf("%s: duplicate %s", name, tid)}
		}
		seen[tid] = true
	}
	if q.kind == opSimilar || q.kind == opNearest {
		return verdict{reason: o.verifyTopK(a)}
	}
	must, may := o.expected(q)
	for _, tid := range a.tids {
		if may[tid] {
			continue
		}
		t := o.lookup(tid)
		if exact || t == nil || o.preloaded[t] || !matches(q, t, edgeBand) {
			return verdict{reason: fmt.Sprintf("%s: unexpected %s", name, tid)}
		}
	}
	for tid := range must {
		if !seen[tid] {
			return verdict{reason: fmt.Sprintf("%s: missing %s", name, tid), onlyMissing: true}
		}
	}
	return verdict{}
}

// topKSlack is the engine tests' allowance for fixed-point coordinate
// quantisation in normalized units.
const topKSlack = 1e-6

func (o *oracle) verifyTopK(a answer) string {
	q := a.op
	k := nearestK
	if q.kind == opSimilar {
		k = similarK
	}
	if want := min(k, len(o.trajs)-boolInt(q.kind == opSimilar)); len(a.tids) < want {
		return fmt.Sprintf("%s: %d results, want %d", kindNames[q.kind], len(a.tids), want)
	}
	kth := o.kthDistance(q, k)
	var nq []model.Point
	if q.kind == opSimilar {
		nq = o.normalize(q.query.Points)
	}
	for _, tid := range a.tids {
		if q.kind == opSimilar && tid == q.query.TID {
			return "similar: returned the query itself"
		}
		if d := o.distance(q, nq, o.lookup(tid)); d > kth+topKSlack {
			return fmt.Sprintf("%s: %s at %g beyond true k-th %g", kindNames[q.kind], tid, d, kth)
		}
	}
	return ""
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
