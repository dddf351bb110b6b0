// Package chaos is a fault-injection test harness for the simulated
// cluster: it loads a seeded workload into a database instance while
// mirroring every acknowledged write into a brute-force model, replays
// seeded query mixes, and provides comparators to assert that retried
// queries converge to the model's answer (or degrade to a correct subset
// under deadlines).
package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/engine"
	"github.com/tman-db/tman/internal/similarity"
	"github.com/tman-db/tman/internal/workload"
)

// Failer is the slice of testing.TB the harness needs to report a failure —
// kept as an interface so harness.go does not import the testing package.
type Failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Run names one chaos scenario and the RNG seed that drives it. Every
// assertion routed through it prints both on failure, so a red run in CI is
// reproducible verbatim: re-run the test with the printed seed.
type Run struct {
	Seed     int64
	Scenario string
}

// Fatalf fails the test with the scenario name and seed prepended.
func (r Run) Fatalf(t Failer, format string, args ...any) {
	t.Helper()
	t.Fatalf("chaos scenario %q (seed %d): %s", r.Scenario, r.Seed, fmt.Sprintf(format, args...))
}

// Assert fails via Fatalf when ok is false.
func (r Run) Assert(t Failer, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		r.Fatalf(t, format, args...)
	}
}

// Cluster pairs a database with the dataset loaded into it and the model
// of every write it has acknowledged (see oracle.go); write through
// Cluster.Put / Cluster.Delete to keep the two in step.
type Cluster struct {
	DB    *tman.DB
	DS    *workload.Dataset
	Model *Model
	opts  []tman.Option // what the database was opened with, for KillAndReopen
}

// SmallRegions shrinks region and memtable thresholds so even modest
// datasets split into many regions across several nodes — the interesting
// regime for fault injection, where a query fans out to many region scans.
func SmallRegions() tman.Option {
	return func(c *engine.Config) {
		c.KV.RegionMaxBytes = 32 << 10
		c.KV.MemtableFlushBytes = 8 << 10
	}
}

// NewCluster loads n TDrive-like trajectories (deterministic in seed) into
// a fresh database. Two clusters built with the same (n, seed) hold
// identical data, so their query answers are directly comparable.
func NewCluster(n int, seed int64, opts ...tman.Option) (*Cluster, error) {
	ds := workload.TDriveSim(n, seed)
	opts = append([]tman.Option{SmallRegions()}, opts...)
	db, err := tman.Open(ds.Boundary, opts...)
	if err != nil {
		return nil, err
	}
	c := &Cluster{DB: db, DS: ds, Model: NewModel(ds.Boundary), opts: opts}
	if err := c.Put(ds.Trajs); err != nil {
		return nil, err
	}
	return c, nil
}

// KillAndReopen kills a durable cluster's database as SIGKILL would —
// nothing is flushed, synced or closed — and opens its data directory
// again: with the background work settled, the directory is copied (that
// image is what a kill at this instant leaves), the database is closed, and
// the image takes the directory's place. The model is untouched: it holds
// exactly the writes acknowledged before the kill, which is what must come
// back.
func (c *Cluster) KillAndReopen() error {
	var cfg engine.Config
	for _, opt := range c.opts {
		opt(&cfg)
	}
	dir, image := cfg.DataDir, cfg.DataDir+".killed"
	c.DB.Engine().Store().Quiesce()
	if err := copyDir(dir, image); err != nil {
		return err
	}
	_ = c.DB.Close() // what it writes on the way out is discarded with dir
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.Rename(image, dir); err != nil {
		return err
	}
	db, err := tman.Open(c.DS.Boundary, c.opts...)
	if err != nil {
		return err
	}
	c.DB = db
	return nil
}

// copyDir copies the files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Query is one sampled query of the paper's six types; Kind selects which
// of the parameter fields are meaningful.
type Query struct {
	Kind  string // time | space | object | spacetime | similar | nearest
	Time  tman.TimeRange
	Space tman.Rect
	OID   string
	Traj  *tman.Trajectory // similar: the query trajectory
	X, Y  float64          // nearest: the query point
}

// Similarity threshold (fraction of the boundary extent) and neighbour
// count every sampled similar / nearest query uses.
const (
	similarTheta = 0.05
	nearestK     = 5
	hour         = int64(3600_000)
)

// sixDraws samples one round of queries, in the fixed order every replay
// shares: a replay that runs only the first n kinds draws only those, so
// its sampler stream does not depend on the kinds it skips.
var sixDraws = []func(s *workload.QuerySampler) Query{
	func(s *workload.QuerySampler) Query { return Query{Kind: "time", Time: s.TimeWindow(2 * hour)} },
	func(s *workload.QuerySampler) Query { return Query{Kind: "space", Space: s.SpaceWindow(20)} },
	func(s *workload.QuerySampler) Query {
		oid, w := s.ObjectWindow(6 * hour)
		return Query{Kind: "object", OID: oid, Time: w}
	},
	func(s *workload.QuerySampler) Query {
		return Query{Kind: "spacetime", Space: s.SpaceWindow(40), Time: s.TimeWindow(6 * hour)}
	},
	func(s *workload.QuerySampler) Query { return Query{Kind: "similar", Traj: s.QueryTrajectory()} },
	func(s *workload.QuerySampler) Query {
		nt := s.QueryTrajectory()
		p := nt.Points[len(nt.Points)/2]
		return Query{Kind: "nearest", X: p.X, Y: p.Y}
	},
}

// exec runs q against the cluster's database under ctx.
func (c *Cluster) exec(ctx context.Context, q Query) ([]*tman.Trajectory, tman.Report, error) {
	switch q.Kind {
	case "time":
		return c.DB.QueryTimeRangeCtx(ctx, q.Time)
	case "space":
		return c.DB.QuerySpaceCtx(ctx, q.Space)
	case "object":
		return c.DB.QueryObjectCtx(ctx, q.OID, q.Time)
	case "spacetime":
		return c.DB.QuerySpaceTimeCtx(ctx, q.Space, q.Time)
	case "similar":
		return c.DB.QuerySimilarThresholdCtx(ctx, q.Traj, similarity.Frechet, similarTheta)
	default:
		return c.DB.QueryNearestCtx(ctx, q.X, q.Y, nearestK)
	}
}

// QueryResult is one query's outcome on one cluster.
type QueryResult struct {
	Name   string
	Query  Query
	Rows   []*tman.Trajectory
	Report tman.Report
}

// replay runs rounds × the first perRound kinds of sixDraws from one seeded
// sampler. The same (seed, rounds) against clusters holding the same
// dataset issues byte-identical queries, so results line up pairwise.
func (c *Cluster) replay(ctx context.Context, seed int64, rounds, perRound int) ([]QueryResult, error) {
	s := workload.NewQuerySampler(c.DS, seed)
	out := make([]QueryResult, 0, rounds*perRound)
	for i := 0; i < rounds; i++ {
		for _, draw := range sixDraws[:perRound] {
			q := draw(s)
			rows, rep, err := c.exec(ctx, q)
			if err != nil {
				return out, fmt.Errorf("%s query %d: %w", q.Kind, i, err)
			}
			out = append(out, QueryResult{Name: fmt.Sprintf("%s-%d", q.Kind, i), Query: q, Rows: rows, Report: rep})
		}
	}
	return out, nil
}

// StandardQueries replays a deterministic mixed workload — temporal,
// spatial, ID-temporal and spatio-temporal windows — under ctx.
func (c *Cluster) StandardQueries(ctx context.Context, seed int64, rounds int) ([]QueryResult, error) {
	return c.replay(ctx, seed, rounds, 4)
}

// SixQueries replays all six of the paper's query types — the four windows
// of StandardQueries plus similarity-threshold and k-nearest.
func (c *Cluster) SixQueries(ctx context.Context, seed int64, rounds int) ([]QueryResult, error) {
	return c.replay(ctx, seed, rounds, len(sixDraws))
}

// Fingerprint reduces a result set to a deterministic string — sorted TIDs,
// each with its point count and first/last point — so two clusters' answers
// can be compared bit-for-bit, not just by id set.
func Fingerprint(ts []*tman.Trajectory) string {
	lines := make([]string, len(ts))
	for i, t := range ts {
		var first, last tman.Point
		if len(t.Points) > 0 {
			first, last = t.Points[0], t.Points[len(t.Points)-1]
		}
		lines[i] = fmt.Sprintf("%s/%s:%d:%v:%v", t.OID, t.TID, len(t.Points), first, last)
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

// TIDs returns the sorted trajectory ids of a result set.
func TIDs(ts []*tman.Trajectory) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.TID
	}
	sort.Strings(out)
	return out
}

// SubsetTIDs reports whether every trajectory in a also appears in b.
func SubsetTIDs(a, b []*tman.Trajectory) bool {
	have := make(map[string]struct{}, len(b))
	for _, t := range b {
		have[t.TID] = struct{}{}
	}
	for _, t := range a {
		if _, ok := have[t.TID]; !ok {
			return false
		}
	}
	return true
}

// TotalRetries sums client RPC retries across a result set's reports.
func TotalRetries(rs []QueryResult) int64 {
	var n int64
	for _, r := range rs {
		n += r.Report.RetriedRPCs
	}
	return n
}
