package chaos

import (
	"context"
	"testing"
	"time"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/workload"
)

// extraTrajectories generates fresh trajectories for mid-chaos writes, with
// ids renamed out of the base dataset's namespace so they never collide.
func extraTrajectories(n int, seed int64) []*tman.Trajectory {
	ds := workload.TDriveSim(n, seed)
	for _, tr := range ds.Trajs {
		tr.OID = "x-" + tr.OID
		tr.TID = "x-" + tr.TID
	}
	return ds.Trajs
}

// followerReadsMatchModel replays the six queries under a follower-read
// context, demands the model's answers, and returns how many region scans
// followers served.
func (c *Cluster) followerReadsMatchModel(ctx context.Context, t *testing.T, run Run) (followerReads int64) {
	t.Helper()
	got, err := c.SixQueries(ctx, querySeed, rounds)
	run.Assert(t, err == nil, "follower-read queries: %v", err)
	for _, g := range got {
		run.Assert(t, Fingerprint(g.Rows) == Fingerprint(c.Model.Answer(g.Query)),
			"follower-read query %s diverged from the model", g.Name)
		followerReads += g.Report.FollowerReads
	}
	return followerReads
}

// TestFollowerReadsRouteAroundSlowNodes: with a slow-node fault and a
// staleness bound, reads prefer replicas on fast nodes — follower reads
// happen and results stay exact.
func TestFollowerReadsRouteAroundSlowNodes(t *testing.T) {
	run := Run{Seed: dataSeed, Scenario: "slow-node-follower-routing"}
	replicated, err := NewCluster(datasetSize, dataSeed,
		tman.WithReplication(3),
		tman.WithFaultInjection(tman.FaultConfig{
			Seed:      99,
			SlowNodes: map[int]float64{0: 8, 1: 8},
		}),
	)
	run.Assert(t, err == nil, "replicated cluster: %v", err)

	followerReads := replicated.followerReadsMatchModel(tman.WithMaxStaleness(context.Background(), 50*time.Millisecond), t, run)
	run.Assert(t, followerReads > 0, "no follower reads under a 50ms bound on a caught-up cluster")
}
