package chaos

import (
	"context"
	"testing"
	"time"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/engine"
)

// transientFaults is the fault mix of the convergence suites: 5% of RPCs
// fail, fresh split children refuse one RPC, and retries can always win.
func transientFaults() []tman.Option {
	return []tman.Option{
		tman.WithFaultInjection(tman.FaultConfig{Seed: 99, PFailRPC: 0.05, UnavailableRPCsAfterSplit: 1}),
		tman.WithRetryPolicy(tman.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: 500 * time.Millisecond,
			MaxBackoff:  10 * time.Second,
			Multiplier:  2,
			JitterFrac:  0.2,
		}),
	}
}

// TestModelOracle drives one cluster per scenario through writes, faults,
// failovers, compactions and re-encodes — one writer at a time — and after
// every step compares all six query types against the brute-force model of
// the writes acknowledged so far. Each scenario then proves it exercised
// the machinery it is named for.
func TestModelOracle(t *testing.T) {
	const n = 600
	extra := extraTrajectories(180, dataSeed+2000)
	third := len(extra) / 3

	var logged, replayed, dropped int64 // the durable row's log accounting
	rows := []struct {
		name      string
		opts      []tman.Option
		steps     func(c *Cluster, step func(name string, err error))
		exercised func(t *testing.T, run Run, c *Cluster)
	}{
		{
			name: "tiny-blocks-evicting-cache-faults",
			// 512 B blocks and a 64 KiB cache: runs span many blocks, the
			// cache evicts, and fences gate many small blocks.
			opts: append(transientFaults(), func(c *engine.Config) {
				c.KV.BlockSizeBytes = 512
				c.KV.BlockCacheBytes = 64 << 10
			}),
			steps: func(c *Cluster, step func(string, error)) {
				step("write 1", c.Put(extra[:third]))
				step("write 2", c.Put(extra[third:]))
			},
			exercised: func(t *testing.T, run Run, c *Cluster) {
				cs := c.DB.Engine().Store().BlockCacheStats()
				run.Assert(t, cs.Misses > 0 && cs.Evictions > 0, "cache never loaded and evicted: %+v", cs)
				st := c.DB.Engine().Store().Stats().Snapshot()
				run.Assert(t, st.BlocksSkipped > 0 && st.FenceBytesRead > 0,
					"fences pruned nothing: skipped=%d fenceBytes=%d", st.BlocksSkipped, st.FenceBytesRead)
			},
		},
		{
			name: "churn-compaction-faults",
			// Minimum fan-in over the 8 KiB memtables of SmallRegions: merges
			// fire on every second flush, under the same faults.
			opts: append(transientFaults(), func(c *engine.Config) {
				c.KV.CompactFanIn = 2
				c.KV.CompactSubRanges = 8
			}),
			steps: func(c *Cluster, step func(string, error)) {
				step("write 1", c.Put(extra[:third]))
				step("write 2", c.Put(extra[third:]))
				c.DB.Engine().Store().CompactAll()
				step("major compaction", nil)
			},
			exercised: func(t *testing.T, run Run, c *Cluster) {
				st := c.DB.Engine().Store().Stats().Snapshot()
				run.Assert(t, st.Compactions > 0 && st.RegionSplits > 0,
					"LSM never churned: %d compactions, %d splits", st.Compactions, st.RegionSplits)
				run.Assert(t, st.RetriedRPCs > 0, "a 5%% fault rate must cause retries")
			},
		},
		{
			name: "rf3-leader-kill-rotation",
			// The acceptance scenario for replicated regions: every node is
			// killed once (promoting each leader it hosted), a write lands
			// while it is down, and it restarts into follower catch-up. The
			// whole-dataset queries of Check make any acked-write loss a
			// divergence, during the outage and after it.
			opts: []tman.Option{tman.WithReplication(3)},
			steps: func(c *Cluster, step func(string, error)) {
				store := c.DB.Engine().Store()
				fifth := len(extra) / store.Nodes()
				for node := 0; node < store.Nodes(); node++ {
					store.KillNode(node)
					step("write during outage", c.Put(extra[node*fifth:(node+1)*fifth]))
					store.ReviveNode(node)
					step("node revived", nil)
				}
			},
			exercised: func(t *testing.T, run Run, c *Cluster) {
				store := c.DB.Engine().Store()
				run.Assert(t, store.Replicas() == 3, "replicas = %d, want 3", store.Replicas())
				st := store.Stats().Snapshot()
				run.Assert(t, st.Failovers > 0, "no failovers happened — scenario never killed a leader")
				run.Assert(t, st.ShipRejects == 0, "ShipRejects = %d, want 0 (no frame should ever be rejected here)", st.ShipRejects)
				// Every replica holds committed history only, so followers
				// with zero staleness answer like the leader.
				reads := c.followerReadsMatchModel(tman.WithMaxStaleness(context.Background(), 0), t, run)
				run.Assert(t, reads > 0, "staleness-bounded pass never touched a follower")
			},
		},
		{
			name: "delete-overwrite-reencode",
			// A low buffer threshold makes fresh shapes trigger element
			// re-encode passes, which rewrite rows around the deletes. No
			// splits and minimum fan-in keep each table one deep run stack,
			// so tombstones merge in young tiers above the rows they shadow.
			opts: []tman.Option{func(c *engine.Config) {
				c.BufferThreshold = 2
				c.KV.RegionMaxBytes = 64 << 20
				c.KV.CompactFanIn = 2
			}},
			steps: func(c *Cluster, step func(string, error)) {
				var err error
				for i := 0; i < len(c.DS.Trajs) && err == nil; i += 5 {
					err = c.Delete(c.DS.Trajs[i])
				}
				step("delete every fifth", err)
				step("overwrite and re-insert", c.Put(c.DS.Trajs[:100]))
				step("fresh shapes", c.Put(extra))
				for i := 0; i < len(extra) && err == nil; i += 3 {
					err = c.Delete(extra[i])
				}
				step("delete after re-encode", err)
				c.DB.Engine().Store().CompactAll()
				step("major compaction", nil)
			},
			exercised: func(t *testing.T, run Run, c *Cluster) {
				run.Assert(t, c.DB.Engine().Reencodes() > 0, "no re-encode pass ran")
				run.Assert(t, c.DB.Engine().Store().Stats().Snapshot().Deletes > 0, "nothing was deleted")
			},
		},
		{
			name: "durable-kill-after-every-step",
			// A durable cluster killed (no flush, no sync, no close) and
			// reopened after every step: writes, deletes, overwrites, re-encode
			// passes, a checkpoint and a major compaction. Whatever was
			// acknowledged before each kill is in run files or the log tail and
			// must answer all six query types exactly; restarts load run files
			// and replay only what the log still holds.
			opts: []tman.Option{tman.WithDataDir(t.TempDir()), func(c *engine.Config) {
				c.BufferThreshold = 2
				c.KV.CompactFanIn = 2
			}},
			steps: func(c *Cluster, step func(string, error)) {
				kill := func(name string, err error) {
					if err == nil {
						ps := c.DB.Engine().Store().PersistStats()
						logged += ps.WALBytesLogged
						dropped += ps.SegmentsDropped
						err = c.KillAndReopen()
						replayed = c.DB.Engine().Store().Recovery().WALBytes
					}
					step(name+", killed and reopened", err)
				}
				kill("loaded", nil)
				kill("write 1", c.Put(extra[:third]))
				var err error
				for i := 0; i < len(c.DS.Trajs) && err == nil; i += 5 {
					err = c.Delete(c.DS.Trajs[i])
				}
				kill("delete every fifth", err)
				kill("checkpoint", c.DB.Checkpoint())
				kill("overwrite and re-insert", c.Put(c.DS.Trajs[:100]))
				kill("write 2, fresh shapes", c.Put(extra[third:]))
				for i := 0; i < len(extra) && err == nil; i += 3 {
					err = c.Delete(extra[i])
				}
				kill("delete after re-encode", err)
				c.DB.Engine().Store().CompactAll()
				kill("major compaction", nil)
			},
			exercised: func(t *testing.T, run Run, c *Cluster) {
				run.Assert(t, dropped > 0, "no log segment was ever unlinked")
				run.Assert(t, replayed < logged/2, "the last restart replayed %d log bytes of %d ever logged: not a tail", replayed, logged)
				rec := c.DB.Engine().Store().Recovery()
				run.Assert(t, rec.RunFiles > 0, "the last restart loaded no run file")
				run.Assert(t, c.DB.Engine().Store().PersistStats().Errors == 0, "persistence errors on the reopened store")
			},
		},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			run := Run{Seed: dataSeed, Scenario: row.name}
			c, err := NewCluster(n, dataSeed, row.opts...)
			run.Assert(t, err == nil, "cluster: %v", err)
			steps := 0
			step := func(name string, err error) {
				t.Helper()
				at := Run{Seed: dataSeed, Scenario: row.name + " / " + name}
				at.Assert(t, err == nil, "%v", err)
				c.Check(t, at, querySeed+int64(steps), 2)
				steps++
			}
			step("loaded", nil)
			row.steps(c, step)
			row.exercised(t, run, c)
		})
	}
}
