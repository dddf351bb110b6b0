package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tman "github.com/tman-db/tman"
)

func newTestServer(t *testing.T) (*httptest.Server, *tman.DB) {
	t.Helper()
	db, err := tman.Open(tman.Beijing)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	return ts, db
}

func sampleJSON(oid, tid string, start int64, x, y float64) TrajectoryJSON {
	tj := TrajectoryJSON{OID: oid, TID: tid}
	for i := 0; i < 10; i++ {
		tj.Points = append(tj.Points, PointJSON{
			X: x + float64(i)*0.001, Y: y + float64(i)*0.001, T: start + int64(i)*60_000,
		})
	}
	return tj
}

func ingest(t *testing.T, ts *httptest.Server, trajs ...TrajectoryJSON) {
	t.Helper()
	body, _ := json.Marshal(trajs)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/trajectories", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
}

func getQuery(t *testing.T, ts *httptest.Server, path string) QueryResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIngestAndQueries(t *testing.T) {
	ts, db := newTestServer(t)
	base := int64(1_700_000_000_000)
	ingest(t, ts,
		sampleJSON("car-1", "t1", base, 116.40, 39.90),
		sampleJSON("car-1", "t2", base+3600_000, 116.42, 39.92),
		sampleJSON("car-2", "t3", base+30*60_000, 116.40, 39.91),
	)
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}

	// Temporal: t1 spans [base, base+9m], t3 starts at +30m, t2 at +1h.
	out := getQuery(t, ts, fmt.Sprintf("/query/time?start=%d&end=%d", base, base+35*60_000))
	if out.Count != 2 {
		t.Errorf("time query count = %d, want 2 (t1 and t3)", out.Count)
	}
	if out.Plan == "" || out.ElapsedMs < 0 {
		t.Errorf("report not populated: %+v", out)
	}

	// Spatial.
	out = getQuery(t, ts, "/query/space?minx=116.39&miny=39.89&maxx=116.41&maxy=39.905")
	if out.Count != 1 || out.Trajectories[0].TID != "t1" {
		t.Errorf("space query = %+v", out.Trajectories)
	}

	// Spatio-temporal.
	out = getQuery(t, ts, fmt.Sprintf(
		"/query/spacetime?minx=116.39&miny=39.89&maxx=116.45&maxy=39.95&start=%d&end=%d",
		base, base+35*60_000))
	if out.Count != 2 {
		t.Errorf("spacetime count = %d, want 2 (t1 and t3)", out.Count)
	}

	// Object.
	out = getQuery(t, ts, fmt.Sprintf("/query/object?oid=car-1&start=%d&end=%d", base, base+2*3600_000))
	if out.Count != 2 {
		t.Errorf("object count = %d, want 2", out.Count)
	}
}

func TestSimilarEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	base := int64(1_700_000_000_000)
	ingest(t, ts,
		sampleJSON("a", "t1", base, 116.40, 39.90),
		sampleJSON("a", "t2", base, 116.401, 39.901),
		sampleJSON("a", "t3", base, 116.60, 40.10),
	)
	body, _ := json.Marshal(similarRequest{
		Query:   sampleJSON("q", "q1", base, 116.4005, 39.9005),
		Measure: "hausdorff",
		K:       2,
	})
	resp, err := http.Post(ts.URL+"/query/similar", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if out.Count != 2 {
		t.Fatalf("topk count = %d, want 2", out.Count)
	}
	for _, tr := range out.Trajectories {
		if tr.TID == "t3" {
			t.Error("distant trajectory in top-2")
		}
	}

	// Threshold variant.
	body, _ = json.Marshal(similarRequest{
		Query: sampleJSON("q", "q2", base, 116.4005, 39.9005),
		Theta: 0.01,
	})
	resp2, err := http.Post(ts.URL+"/query/similar", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 QueryResponse
	json.NewDecoder(resp2.Body).Decode(&out2)
	if out2.Count == 0 {
		t.Error("threshold found nothing nearby")
	}
}

func TestDeleteEndpoint(t *testing.T) {
	ts, db := newTestServer(t)
	base := int64(1_700_000_000_000)
	tj := sampleJSON("a", "t1", base, 116.40, 39.90)
	ingest(t, ts, tj)
	body, _ := json.Marshal(tj)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/trajectories/t1", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if db.Len() != 0 {
		t.Errorf("Len after delete = %d", db.Len())
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	ingest(t, ts, sampleJSON("a", "t1", 1_700_000_000_000, 116.40, 39.90))
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["trajectories"].(float64) != 1 {
		t.Errorf("stats = %v", stats)
	}
	for _, key := range []string{"cache_hits", "cache_misses", "dir_loads", "shared_loads", "plan_hits", "plan_misses", "plan_entries"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing %q: %v", key, stats)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path, body string
		wantCode           int
	}{
		{"GET", "/query/time?start=10&end=5", "", http.StatusBadRequest},
		{"GET", "/query/time", "", http.StatusBadRequest},
		{"GET", "/query/space?minx=2&miny=0&maxx=1&maxy=1", "", http.StatusBadRequest},
		{"GET", "/query/object?start=0&end=1", "", http.StatusBadRequest},
		{"PUT", "/trajectories", "{not json", http.StatusBadRequest},
		{"PUT", "/trajectories", `[{"oid":"o","tid":"","points":[]}]`, http.StatusUnprocessableEntity},
		{"POST", "/query/similar", `{"measure":"nope"}`, http.StatusBadRequest},
		{"GET", "/trajectories/t1", "", http.StatusMethodNotAllowed},
		{"DELETE", "/query/time", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantCode)
		}
	}
}

func TestIngestSortsUnorderedPoints(t *testing.T) {
	ts, db := newTestServer(t)
	tj := TrajectoryJSON{OID: "o", TID: "t", Points: []PointJSON{
		{X: 116.4, Y: 39.9, T: 2000},
		{X: 116.41, Y: 39.91, T: 1000},
	}}
	ingest(t, ts, tj)
	if db.Len() != 1 {
		t.Fatal("unordered trajectory should be repaired and stored")
	}
}

func TestNearestEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	base := int64(1_700_000_000_000)
	ingest(t, ts,
		sampleJSON("a", "near", base, 116.400, 39.900),
		sampleJSON("a", "far", base, 116.80, 40.30),
	)
	out := getQuery(t, ts, "/query/nearest?x=116.401&y=39.901&k=1")
	if out.Count != 1 || out.Trajectories[0].TID != "near" {
		t.Fatalf("nearest = %+v", out.Trajectories)
	}
	resp, _ := http.Get(ts.URL + "/query/nearest?x=1&y=2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing k: status %d", resp.StatusCode)
	}
}

func TestSimilarRequiresKOrTheta(t *testing.T) {
	ts, _ := newTestServer(t)
	body, _ := json.Marshal(similarRequest{
		Query: sampleJSON("q", "q1", 1_700_000_000_000, 116.4, 39.9),
	})
	resp, err := http.Post(ts.URL+"/query/similar", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing k/theta: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp2, _ := http.Get(ts.URL + "/query/similar")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET similar: status %d", resp2.StatusCode)
	}
	// Bad JSON body.
	resp3, _ := http.Post(ts.URL+"/query/similar", "application/json", strings.NewReader("{"))
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp3.StatusCode)
	}
}

func TestIngestPartialFailureReportsProgress(t *testing.T) {
	ts, db := newTestServer(t)
	base := int64(1_700_000_000_000)
	good := sampleJSON("a", "ok-1", base, 116.4, 39.9)
	bad := TrajectoryJSON{OID: "a", TID: "", Points: []PointJSON{{X: 1, Y: 1, T: 1}}}
	body, _ := json.Marshal([]TrajectoryJSON{good, bad})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/trajectories", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partial failure status %d", resp.StatusCode)
	}
	var msg map[string]string
	json.NewDecoder(resp.Body).Decode(&msg)
	if !strings.Contains(msg["error"], "after 1 stored") {
		t.Errorf("error should report progress: %q", msg["error"])
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d; the valid trajectory should have landed", db.Len())
	}
}

func TestDeleteBadBodyAndMissing(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/trajectories/x", strings.NewReader("{"))
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad delete body: status %d", resp.StatusCode)
	}
	// Deleting an absent (but well-formed) trajectory is a KV no-op: the
	// engine validates shape only, so it succeeds idempotently.
	body, _ := json.Marshal(sampleJSON("a", "ghost", 1_700_000_000_000, 116.4, 39.9))
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/trajectories/ghost", bytes.NewReader(body))
	resp2, _ := http.DefaultClient.Do(req2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("idempotent delete: status %d", resp2.StatusCode)
	}
}

func TestSpaceTimeMissingTimeParams(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := http.Get(ts.URL + "/query/spacetime?minx=1&miny=1&maxx=2&maxy=2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing time params: status %d", resp.StatusCode)
	}
}

// An ingest body past the cap is refused with 413 before it is buffered;
// whitespace keeps the JSON decoder reading until the limit trips.
func TestIngestBodyTooLargeIs413(t *testing.T) {
	ts, db := newTestServer(t)
	body := append([]byte("["), bytes.Repeat([]byte(" "), maxIngestBodyBytes+1)...)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/trajectories", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", resp.StatusCode)
	}
	if db.Len() != 0 {
		t.Fatalf("oversized ingest stored %d trajectories", db.Len())
	}
}

// The cap must sit far above real batches: 2 MiB of JSON lands whole.
func TestIngestTwoMiBBatchLands(t *testing.T) {
	ts, db := newTestServer(t)
	base := int64(1_700_000_000_000)
	batch := make([]TrajectoryJSON, 250)
	for i := range batch {
		tj := TrajectoryJSON{OID: fmt.Sprintf("car-%d", i%20), TID: fmt.Sprintf("big-%04d", i)}
		for j := 0; j < 200; j++ {
			tj.Points = append(tj.Points, PointJSON{
				X: 116.1234567 + float64(i)*0.0011 + float64(j)*0.0001234,
				Y: 39.7654321 + float64(j)*0.0001432,
				T: base + int64(i)*1000 + int64(j)*15_000,
			})
		}
		batch[i] = tj
	}
	if body, _ := json.Marshal(batch); len(body) < 2<<20 {
		t.Fatalf("batch is only %d bytes of JSON, want ≥ 2 MiB", len(body))
	}
	ingest(t, ts, batch...)
	if db.Len() != int64(len(batch)) {
		t.Fatalf("Len = %d after a %d-trajectory batch", db.Len(), len(batch))
	}
}
