package chaos

import (
	"context"
	"sort"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/compress"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/similarity"
)

// Model is the brute-force oracle: a plain map of the trajectories a
// cluster has acknowledged, and the six query predicates evaluated by
// scanning it. It shares no code with the engine's indexes, plans, runs or
// caches — only the point codec (stored coordinates are fixed-point, so the
// model keeps what a row decodes to) and the distance functions that
// define the similarity and nearest answers.
type Model struct {
	space *geo.Space
	trajs map[string]*tman.Trajectory // by TID, points after one codec round trip
}

// NewModel returns an empty model over the dataset boundary.
func NewModel(boundary tman.Rect) *Model {
	return &Model{space: geo.MustSpace(boundary), trajs: make(map[string]*tman.Trajectory)}
}

// Put records t as stored, replacing any trajectory with the same TID.
func (m *Model) Put(t *tman.Trajectory) {
	pts, err := compress.DecodePoints(compress.EncodePoints(t.Points))
	if err != nil {
		panic(err) // the codec cannot fail on its own output
	}
	m.trajs[t.TID] = &tman.Trajectory{OID: t.OID, TID: t.TID, Points: pts}
}

// Delete forgets the trajectory with t's TID.
func (m *Model) Delete(t *tman.Trajectory) { delete(m.trajs, t.TID) }

// normalized maps points into the unit square the engine measures
// similarity and nearest distances in.
func (m *Model) normalized(pts []tman.Point) []tman.Point {
	out := make([]tman.Point, len(pts))
	for i, p := range pts {
		x, y := m.space.Normalize(p.X, p.Y)
		out[i] = tman.Point{X: x, Y: y, T: p.T}
	}
	return out
}

// Answer evaluates q against every stored trajectory.
func (m *Model) Answer(q Query) []*tman.Trajectory {
	if q.Kind == "nearest" {
		return m.nearest(q.X, q.Y)
	}
	var nq []tman.Point
	if q.Kind == "similar" {
		nq = m.normalized(q.Traj.Points)
	}
	var out []*tman.Trajectory
	for _, t := range m.trajs {
		var hit bool
		switch q.Kind {
		case "time":
			hit = t.TimeRange().Intersects(q.Time)
		case "space":
			hit = t.IntersectsRect(q.Space)
		case "object":
			hit = t.OID == q.OID && t.TimeRange().Intersects(q.Time)
		case "spacetime":
			hit = t.TimeRange().Intersects(q.Time) && t.IntersectsRect(q.Space)
		case "similar":
			hit = similarity.Distance(similarity.Frechet, nq, m.normalized(t.Points)) <= similarTheta
		}
		if hit {
			out = append(out, t)
		}
	}
	return out
}

// nearest returns the nearestK trajectories passing closest to (x, y):
// distance is point-to-polyline in normalized space, ties broken by TID.
func (m *Model) nearest(x, y float64) []*tman.Trajectory {
	nx, ny := m.space.Normalize(x, y)
	type cand struct {
		d float64
		t *tman.Trajectory
	}
	cands := make([]cand, 0, len(m.trajs))
	for _, t := range m.trajs {
		pts := m.normalized(t.Points)
		d := geo.PointSegmentDist(nx, ny, geo.Segment{X1: pts[0].X, Y1: pts[0].Y, X2: pts[0].X, Y2: pts[0].Y})
		for i := 1; i < len(pts); i++ {
			if s := geo.PointSegmentDist(nx, ny, geo.Segment{X1: pts[i-1].X, Y1: pts[i-1].Y, X2: pts[i].X, Y2: pts[i].Y}); s < d {
				d = s
			}
		}
		cands = append(cands, cand{d, t})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].t.TID < cands[j].t.TID
	})
	if len(cands) > nearestK {
		cands = cands[:nearestK]
	}
	out := make([]*tman.Trajectory, len(cands))
	for i, c := range cands {
		out[i] = c.t
	}
	return out
}

// Put writes ts through the batched path and, once acknowledged, mirrors
// them into the model.
func (c *Cluster) Put(ts []*tman.Trajectory) error {
	if err := c.DB.PutBatch(ts); err != nil {
		return err
	}
	for _, t := range ts {
		c.Model.Put(t)
	}
	return nil
}

// Delete removes t from the database and, once acknowledged, the model.
func (c *Cluster) Delete(t *tman.Trajectory) error {
	if err := c.DB.Delete(t); err != nil {
		return err
	}
	c.Model.Delete(t)
	return nil
}

// Check replays the SixQueries sampler, then one time query and one space
// query covering the whole dataset (so a trajectory lost or resurrected
// anywhere is seen at every step, not only when a sampled window happens to
// cover it), and fails unless every answer is complete and equals the
// model's: the same trajectory ids, each with the model's point count and
// first and last point.
func (c *Cluster) Check(t Failer, run Run, seed int64, rounds int) {
	t.Helper()
	ctx := context.Background()
	rs, err := c.SixQueries(ctx, seed, rounds)
	run.Assert(t, err == nil, "queries: %v", err)
	for _, q := range []Query{
		{Kind: "time", Time: tman.TimeRange{Start: c.DS.TimeOrigin, End: c.DS.TimeOrigin + c.DS.TimeSpan}},
		{Kind: "space", Space: c.DS.Boundary},
	} {
		rows, rep, err := c.exec(ctx, q)
		run.Assert(t, err == nil, "whole-dataset %s query: %v", q.Kind, err)
		rs = append(rs, QueryResult{Name: "all-" + q.Kind, Query: q, Rows: rows, Report: rep})
	}
	for _, r := range rs {
		run.Assert(t, !r.Report.Partial, "query %s degraded to a partial answer: %+v", r.Name, r.Report)
		got, want := Fingerprint(r.Rows), Fingerprint(c.Model.Answer(r.Query))
		run.Assert(t, got == want, "query %s diverges from the model:\nengine: %s\n model: %s", r.Name, got, want)
	}
}
