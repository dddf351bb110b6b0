package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/tman-db/tman/internal/compress"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{6000, 0.995, 30}, // 0.999 would leave only 6 beyond
		{1000, 0.99, 10},
		{999, 0.95, 49}, // 0.99 leaves 9
		{100, 0.90, 10},
		{15, 0.50, 7}, // nothing qualifies: fall back to the median
	} {
		q, beyond := supportedTail(c.n, 10)
		if q != c.q || beyond != c.beyond {
			t.Errorf("supportedTail(%d) = %v with %d beyond, want %v with %d", c.n, q, beyond, c.q, c.beyond)
		}
	}
}

// The acceptance driver computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 2, 9, 4}, 1.5, 7.0},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{90, 100, 110, 100, 100}); math.Abs(s-0.1) > 1e-12 { // quartiles 95 and 105
		t.Errorf("spread = %v, want 0.1", s)
	}
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func TestPickKindDealsTheMixExactly(t *testing.T) {
	in := generate(findWorkload("serve-mix").scaled(20), 3, 1)
	g := newOpGen(in, 5)
	var n [numKinds]int
	for i := 0; i < 200; i++ {
		n[g.pickKind()]++
	}
	for k, w := range in.spec.mix {
		if n[k] != 2*w {
			t.Errorf("%s dealt %d times in 200, want %d", kindNames[k], n[k], 2*w)
		}
	}
}

func TestIngestTemplatePatchesEveryTID(t *testing.T) {
	ds := workload.TLorrySim(7, 1)
	snapToStoreGrid(ds, "w")
	tmpl := newIngestTemplate(ds.Trajs)
	var got []httpapi.TrajectoryJSON
	if err := json.Unmarshal(tmpl.render(nil, 1234), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("%d trajectories, want 7", len(got))
	}
	for i, tj := range got {
		if want := tidWithOrdinal(ds.Trajs[i].TID, 1234); tj.TID != want || !strings.HasSuffix(want, "-00001234") {
			t.Errorf("TID %q, want %q", tj.TID, want)
		}
		if len(tj.Points) != len(ds.Trajs[i].Points) || tj.Points[0].X != ds.Trajs[i].Points[0].X {
			t.Errorf("trajectory %d changed beyond its TID", i)
		}
	}
	// The template itself must be untouched by a render.
	if err := json.Unmarshal(tmpl.render(nil, 0), &got); err != nil || got[0].TID != ds.Trajs[0].TID {
		t.Errorf("ordinal 0 must reproduce the generated TIDs, got %q (%v)", got[0].TID, err)
	}
}

// handDataset is three trajectories one can reason about by eye, inside the
// Lorry boundary: a and b belong to obj-1, c to obj-2; a and c run along
// y = 20 one hour apart, b is far away.
func handDataset() *workload.Dataset {
	line := func(oid string, x0, y0 float64, t0 int64) *model.Trajectory {
		pts := make([]model.Point, 5)
		for i := range pts {
			pts[i] = model.Point{X: x0 + 0.01*float64(i), Y: y0, T: t0 + int64(i)*minuteMS}
		}
		return &model.Trajectory{OID: oid, Points: pts}
	}
	ds := &workload.Dataset{
		Boundary: geo.Rect{MinX: 70, MinY: 0, MaxX: 140, MaxY: 55},
		Trajs: []*model.Trajectory{
			line("obj-1", 100, 20, 0),
			line("obj-1", 120, 40, 10*hourMS),
			line("obj-2", 100.001, 20, hourMS),
		},
	}
	snapToStoreGrid(ds, "p")
	return ds
}

func TestOraclePredicatesOnHandBuiltDataset(t *testing.T) {
	ds := handDataset()
	o := newOracle(ds, nil)
	a, b, c := ds.Trajs[0].TID, ds.Trajs[1].TID, ds.Trajs[2].TID
	ans := func(q *op, tids ...string) answer { return answer{op: q, status: 200, tids: tids} }
	around := geo.Rect{MinX: 99.99, MinY: 19.99, MaxX: 100.05, MaxY: 20.01}

	for _, tc := range []struct {
		name  string
		q     *op
		tids  []string
		exact bool
		wrong string // substring of the reason, "" = right
	}{
		{"time: closed ranges touch", &op{kind: opTime, tr: model.TimeRange{Start: 4 * minuteMS, End: 30 * minuteMS}}, []string{a}, true, ""},
		{"time: one missing", &op{kind: opTime, tr: model.TimeRange{Start: 0, End: 2 * hourMS}}, []string{a}, true, "missing"},
		{"time: one too many", &op{kind: opTime, tr: model.TimeRange{Start: 0, End: minuteMS}}, []string{a, b}, true, "unexpected"},
		{"space: both on the line", &op{kind: opSpace, rect: around}, []string{c, a}, true, ""},
		{"space: far one is wrong", &op{kind: opSpace, rect: around}, []string{a, b, c}, true, "unexpected"},
		{"space: duplicate", &op{kind: opSpace, rect: around}, []string{a, a, c}, true, "duplicate"},
		{"spacetime: window and hour", &op{kind: opSpaceTime, rect: around, tr: model.TimeRange{Start: hourMS, End: 2 * hourMS}}, []string{c}, true, ""},
		{"object: id and time", &op{kind: opObject, oid: "obj-1", tr: model.TimeRange{Start: 0, End: 20 * hourMS}}, []string{a, b}, true, ""},
		{"object: other object's trip", &op{kind: opObject, oid: "obj-1", tr: model.TimeRange{Start: 0, End: 20 * hourMS}}, []string{a, b, c}, true, "unexpected"},
		// a ends at x = 100.04: a window starting 2e-6° before that end
		// touches it inside the edge band, so both answers are accepted; one
		// starting 1e-4° before it must contain a.
		{"space: touch inside the band, absent", &op{kind: opSpace, rect: geo.Rect{MinX: 100.039998, MinY: 19, MaxX: 101, MaxY: 21}}, []string{c}, true, ""},
		{"space: touch inside the band, present", &op{kind: opSpace, rect: geo.Rect{MinX: 100.039998, MinY: 19, MaxX: 101, MaxY: 21}}, []string{a, c}, true, ""},
		{"space: clear overlap, absent", &op{kind: opSpace, rect: geo.Rect{MinX: 100.0399, MinY: 19, MaxX: 101, MaxY: 21}}, []string{c}, true, "missing"},
	} {
		v := o.verify(ans(tc.q, tc.tids...), tc.exact)
		if (tc.wrong == "") != (v.reason == "") || !strings.Contains(v.reason, tc.wrong) {
			t.Errorf("%s: verdict %q, want %q", tc.name, v.reason, tc.wrong)
		}
		if v.onlyMissing != (tc.wrong == "missing") {
			t.Errorf("%s: onlyMissing = %v", tc.name, v.onlyMissing)
		}
	}

	// Status, partial and payload defects are wrong whatever the TIDs say.
	q := &op{kind: opSpace, rect: around}
	for name, bad := range map[string]answer{
		"status":  {op: q, status: 503},
		"partial": {op: q, status: 200, partial: true, tids: []string{a, c}},
		"payload": {op: q, status: 200, tids: []string{a, c}, badPayload: a},
	} {
		if o.verify(bad, true).reason == "" {
			t.Errorf("%s defect accepted", name)
		}
	}
}

func TestOracleBesideWritesAndTopK(t *testing.T) {
	ds := handDataset()
	stream := &workload.Dataset{Boundary: ds.Boundary, Trajs: []*model.Trajectory{ds.Trajs[0].Clone()}}
	stream.Trajs[0].OID = "obj-9"
	snapToStoreGrid(stream, "w")
	o := newOracle(ds, stream)
	a, c := ds.Trajs[0].TID, ds.Trajs[2].TID
	sent := tidWithOrdinal(stream.Trajs[0].TID, 3) // third send of the template
	q := &op{kind: opSpace, rect: geo.Rect{MinX: 99.99, MinY: 19.99, MaxX: 100.05, MaxY: 20.01}}

	if v := o.verify(answer{op: q, status: 200, tids: []string{a, c, sent}}, false); v.reason != "" {
		t.Errorf("an ingested trajectory that satisfies the query is sound: %q", v.reason)
	}
	if v := o.verify(answer{op: q, status: 200, tids: []string{a, c, sent}}, true); v.reason == "" {
		t.Error("a read-only workload must not see trajectories it never preloaded")
	}
	far := &op{kind: opSpace, rect: geo.Rect{MinX: 119, MinY: 39, MaxX: 121, MaxY: 41}}
	if v := o.verify(answer{op: far, status: 200, tids: []string{ds.Trajs[1].TID, sent}}, false); !strings.Contains(v.reason, "unexpected") {
		t.Errorf("an ingested trajectory outside the window is unsound: %q", v.reason)
	}

	// digest compares payloads with the generated trajectories.
	resp := &httpapi.QueryResponse{Count: 1, Trajectories: []httpapi.TrajectoryJSON{{OID: "obj-9", TID: sent}}}
	for _, p := range stream.Trajs[0].Points {
		resp.Trajectories[0].Points = append(resp.Trajectories[0].Points, httpapi.PointJSON{X: p.X, Y: p.Y, T: p.T})
	}
	if got := o.digest(q, 200, resp); got.badPayload != "" || len(got.tids) != 1 {
		t.Errorf("digest rejected a faithful payload: %+v", got)
	}
	resp.Trajectories[0].Points[2].X += 1e-7
	if got := o.digest(q, 200, resp); got.badPayload != sent {
		t.Errorf("digest missed a moved point: %+v", got)
	}

	// Nearest: the two trajectories along y = 20 are nearer to (100, 20.1)
	// than the one at (120, 40); an answer holding the far one is wrong.
	near := &op{kind: opNearest, x: 100, y: 20.1}
	o2 := newOracle(ds, nil)
	if r := o2.kthDistance(near, 2); r > 0.01 {
		t.Errorf("2nd nearest distance %v, want about 0.1°/55°", r)
	}
	if d := o2.distance(near, nil, ds.Trajs[1]); d < 0.3 {
		t.Errorf("far trajectory at distance %v", d)
	}
}

func TestParseExpositionAndCounterDiff(t *testing.T) {
	text := `# HELP tman_store_flushes_total memtable flushes
# TYPE tman_store_flushes_total counter
tman_store_flushes_total 12
tman_bg_seconds_total{kind="compact"} 1.5
tman_slo_shed_total{type="time"} 0
`
	m, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["tman_store_flushes_total"] != 12 || m[`tman_bg_seconds_total{kind="compact"}`] != 1.5 || len(m) != 3 {
		t.Errorf("parsed %v", m)
	}
	before := counters{"flushes": 3, "rows_scanned": 100}
	after := counters{"flushes": 10, "rows_scanned": 250, "compactions": 2}
	d := before.diff(after)
	if d["flushes"] != 7 || d["rows_scanned"] != 150 || d["compactions"] != 2 {
		t.Errorf("diff = %v", d)
	}
}

func TestIntFieldReadsResponseHeads(t *testing.T) {
	head := []byte(`{"count":83,"plan":"primary:tshape","candidates":120,"elapsed_ms":1.2,"partial":false,`)
	if n, ok := intField(head, "count"); !ok || n != 83 {
		t.Errorf("count = %d, %v", n, ok)
	}
	if n, ok := intField([]byte(`{"stored":200,"total":4000}`), "stored"); !ok || n != 200 {
		t.Errorf("stored = %d, %v", n, ok)
	}
	if _, ok := intField(head, "stored"); ok {
		t.Error("found a field that is not there")
	}
}

// The open loop must count latency from each arrival's due time and report
// how late the generator sent it: with both connections busy for 40 ms,
// arrivals that were all due at once finish 40, 40, 80, 80, 120, 120 ms
// after they were due, and the later ones show 40 and 80 ms of lag.
func TestOpenLoopCountsFromDueTimeAndReportsLag(t *testing.T) {
	const busy = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(busy)
		w.Write([]byte(`{"count":0,"partial":false,"trajectories":[]}`))
	}))
	defer srv.Close()
	schedule := make([]scheduled, 6)
	for i := range schedule {
		schedule[i] = scheduled{dueNS: int64(time.Millisecond), op: &op{kind: opTime, method: "GET", url: "/query/time?start=0&end=1"}}
	}
	client := newLoadClient()
	defer client.CloseIdleConnections()
	res := runOpen(srv.URL, client, nil, schedule)
	if len(res.samples) != 6 {
		t.Fatalf("%d samples", len(res.samples))
	}
	lat := make([]float64, 6)
	lag := make([]float64, 6)
	for i, s := range res.samples {
		if !s.ok || s.dueNS != int64(time.Millisecond) {
			t.Fatalf("sample %d: %+v", i, s)
		}
		lat[i], lag[i] = s.latencyMS(), float64(s.lagNS)/1e6
	}
	sort.Float64s(lag)
	ms := float64(busy / time.Millisecond)
	for i, wantLag := range []float64{0, 0, ms, ms, 2 * ms, 2 * ms} {
		if lag[i] < wantLag-1 || lag[i] > wantLag+25 {
			t.Errorf("lag[%d] = %.1f ms, want about %.0f", i, lag[i], wantLag)
		}
		// samples are ordered by completion, so latency i pairs with lag i.
		if want := wantLag + ms; lat[i] < want-1 || lat[i] > want+25 {
			t.Errorf("latency[%d] = %.1f ms from due time, want about %.0f", i, lat[i], want)
		}
	}
}

func TestClosedLoopLagExcludesTheServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte(`{"count":0,"partial":false,"trajectories":[]}`))
	}))
	defer srv.Close()
	in := generate(findWorkload("hot-read").scaled(50), 1, 1)
	client := newLoadClient()
	defer client.CloseIdleConnections()
	res := runClosed(srv.URL, client, in.oracle, []*opGen{clientGen(in, 0), clientGen(in, 1)}, 200*time.Millisecond)
	if n := len(res.samples); n < 20 || n > 100 {
		t.Fatalf("%d samples in 200 ms at 5 ms an op over two connections", n)
	}
	r := &timedRun{in: in, load: res}
	if lag := r.lagP99MS(); lag > 4 {
		t.Errorf("closed-loop generator lag p99 = %.2f ms; the server's 5 ms must not count", lag)
	}
	if len(res.answers) == 0 {
		t.Error("no read was kept for the oracle")
	}
}

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"github.com/tman-db/tman/internal/kvstore.(*region).scan":           "kvstore",
		"github.com/tman-db/tman/internal/index/tshape.(*Index).visitCells": "index",
		"github.com/tman-db/tman/internal/engine.spatialFenceFilter.Accept": "engine",
		"github.com/tman-db/tman/internal/cache.(*BlockCache).GetOrLoad":    "cache",
		"github.com/tman-db/tman/internal/httpapi.(*Server).handleNearest":  "httpapi",
		"github.com/tman-db/tman/internal/compress.Varint":                  "compress",
		"github.com/tman-db/tman/internal/similarity.FrechetDistance":       "similarity",
		"github.com/tman-db/tman/internal/geo.PointSegmentDist":             "", // helper: its caller's layer
		"github.com/tman-db/tman/internal/cachex.Get":                       "", // not the cache package
		"github.com/tman-db/tman.(*DB).QueryNearestCtx":                     "",
		"runtime.mallocgc":                                                      "",
		"encoding/json.(*encodeState).marshal":                                  "",
		"github.com/tman-db/tman/benchmark/internal/kvstore.x":                  "",
		"github.com/tman-db/tman/internal/kvstore.(*Table).ScanRangesCtx.func2": "kvstore",
	} {
		if got := layerOfFunc(name); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", name, got, want)
		}
	}
}

// A real CPU profile of this process busy in one layer's code must charge
// that layer, whatever the runtime does underneath it.
func TestLayerSharesOfARealProfile(t *testing.T) {
	pts := workload.TLorrySim(50, 1).Trajs
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("another profile is running:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		for _, tj := range pts {
			if _, err := compress.DecodePoints(compress.EncodePoints(tj.Points)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := layerShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector most samples land in its own runtime calls,
	// whose stacks hold no Go frame; what is charged to a layer must still
	// be charged to this one.
	if elsewhere := 1 - shares["compress"] - shares["runtime"]; n < 10 || shares["compress"] < 0.2 || elsewhere > 0.1 {
		t.Errorf("%d samples, shares %v: a loop over compress must be charged to compress", n, shares)
	}
	sum := 0.0
	for _, l := range profileLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares of the named layers sum to %v: a sample fell outside them (%v)", sum, shares)
	}
	if _, _, err := layerShares([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

// The -smoke pass runs every workload end to end on tiny data with tmand
// served in-process, and must emit exactly the metrics BENCHMARK.json names,
// each once, each finite.
func TestSmokeEmitsEveryNamedMetricOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	runs, spans, err := runSets(options{root: root, workload: "all", seed: 1, seconds: 1, trace: -1, setups: 1, repeat: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(spec.Workloads) {
		t.Fatalf("%d runs for %d workloads", len(runs), len(spec.Workloads))
	}
	for i, r := range runs {
		if r.Workload != spec.Workloads[i].Name {
			t.Errorf("run %d is %q, BENCHMARK.json lists %q", i, r.Workload, spec.Workloads[i].Name)
		}
		if !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failures=%v invalid=%v", r.Workload, r.Correct, r.Attempted, r.Failures, r.Invalid)
		}
		check := func(kind string, defs []metricDef, got metricSet) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", r.Workload, len(got), kind, len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", r.Workload, kind, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", r.Workload, d.Name, m.Value)
				}
			}
		}
		check("end-to-end", spec.EndToEnd, r.EndToEnd)
		check("per-layer", spec.PerLayer, r.PerLayer)
		for _, d := range spec.EndToEnd {
			if r.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.Name, r.EndToEnd[d.Name].Value)
			}
		}
		if len(spans[r.Workload]) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", r.Workload)
		}
	}
}
