package chaos

import (
	"context"
	"testing"
	"time"

	tman "github.com/tman-db/tman"
)

const (
	datasetSize = 1500
	dataSeed    = 7
	querySeed   = 21
	rounds      = 4
)

// TestFaultedClusterConvergesToFaultFree is the headline chaos property:
// with transient per-RPC failures, a slow node and short unavailability
// windows after splits, every query against the faulted cluster must return
// exactly the model's answer as long as retries can eventually succeed —
// and must actually have retried, without sleeping for real backoff time.
func TestFaultedClusterConvergesToFaultFree(t *testing.T) {
	faulted, err := NewCluster(datasetSize, dataSeed,
		tman.WithFaultInjection(tman.FaultConfig{
			Seed:                      99,
			PFailRPC:                  0.05,
			SlowNodes:                 map[int]float64{0: 4},
			UnavailableRPCsAfterSplit: 1,
		}),
		tman.WithRetryPolicy(tman.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: 500 * time.Millisecond, // sleeping for real would blow the wall-clock bound
			MaxBackoff:  10 * time.Second,
			Multiplier:  2,
			JitterFrac:  0.2,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	started := time.Now()
	got, err := faulted.StandardQueries(context.Background(), querySeed, rounds)
	elapsed := time.Since(started)
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range got {
		if g.Report.Partial {
			t.Fatalf("%s: degraded despite winnable retries: %+v", g.Name, g.Report)
		}
		if want := faulted.Model.Answer(g.Query); Fingerprint(g.Rows) != Fingerprint(want) {
			t.Fatalf("%s: faulted answer diverged: %d rows vs %d\nfaulted: %v\n  model: %v",
				g.Name, len(g.Rows), len(want), TIDs(g.Rows), TIDs(want))
		}
	}
	retries := TotalRetries(got)
	if retries == 0 {
		t.Fatal("a 5% fault rate plus post-split unavailability must cause retries")
	}
	// Backoff is analytic: with a 500ms base, really sleeping for `retries`
	// backoffs would take many seconds at least.
	if elapsed > 5*time.Second {
		t.Fatalf("workload took %v for %d retries — backoff appears to sleep for real", elapsed, retries)
	}
}

// TestFaultScheduleIsDeterministic: the same seeds must reproduce the exact
// same retry counts, not just the same answers.
func TestFaultScheduleIsDeterministic(t *testing.T) {
	run := func() []QueryResult {
		c, err := NewCluster(800, dataSeed,
			tman.WithFaultInjection(tman.FaultConfig{Seed: 5, PFailRPC: 0.1}),
		)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := c.StandardQueries(context.Background(), querySeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Report.RetriedRPCs != b[i].Report.RetriedRPCs {
			t.Fatalf("%s: retry schedule not deterministic: %d vs %d",
				a[i].Name, a[i].Report.RetriedRPCs, b[i].Report.RetriedRPCs)
		}
	}
	if TotalRetries(a) == 0 {
		t.Fatal("expected retries at a 10% fault rate")
	}
}

// TestTightDeadlineYieldsGracefulPartialResults: aggressive faults plus a
// deadline shorter than one backoff force some region scans to be
// abandoned. The query must not fail: it returns the rows it could collect,
// flags Partial, and the partial answer is a strict, correct subset of the
// model's answer.
func TestTightDeadlineYieldsGracefulPartialResults(t *testing.T) {
	faulted, err := NewCluster(datasetSize, dataSeed,
		tman.WithFaultInjection(tman.FaultConfig{Seed: 13, PFailRPC: 0.5}),
		tman.WithRetryPolicy(tman.RetryPolicy{
			MaxAttempts: 6,
			BaseBackoff: 300 * time.Millisecond,
			MaxBackoff:  10 * time.Second,
			Multiplier:  2,
			JitterFrac:  0.2,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Whole-dataset spatial query: every region contributes, so healthy
	// regions keep answering while faulted ones run out of deadline.
	window := faulted.DS.Boundary
	full := faulted.Model.Answer(Query{Kind: "space", Space: window})
	if len(full) == 0 {
		t.Fatal("the model's full scan returned nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	started := time.Now()
	rows, rep, err := faulted.DB.QuerySpaceCtx(ctx, window)
	if err != nil {
		t.Fatalf("deadline must degrade, not error: %v", err)
	}
	if time.Since(started) > 2*time.Second {
		t.Fatal("deadline handling slept for real backoff time")
	}
	if !rep.Partial {
		t.Fatalf("expected a partial result under 50%% faults and a 50ms deadline: %+v", rep)
	}
	if len(rows) == 0 {
		t.Fatal("partial result must keep rows from healthy regions")
	}
	if len(rows) >= len(full) {
		t.Fatalf("partial result should be missing rows: %d vs full %d", len(rows), len(full))
	}
	if !SubsetTIDs(rows, full) {
		t.Fatal("partial result contains trajectories absent from the model's answer")
	}
	if rep.FailedRegions == 0 {
		t.Fatalf("partial report must count failed regions: %+v", rep)
	}
}

// TestCancelAbortsQueries: explicit cancellation is an error, not a partial
// result — callers who gave up must be able to tell.
func TestCancelAbortsQueries(t *testing.T) {
	c, err := NewCluster(400, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.DB.QuerySpaceCtx(ctx, c.DS.Boundary); err == nil {
		t.Fatal("cancelled query must return an error")
	}
}
