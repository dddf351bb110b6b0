package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/compress"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/index/tr"
	"github.com/tman-db/tman/internal/index/tshape"
	"github.com/tman-db/tman/internal/kvstore"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/similarity"
)

// The traced pass runs the workload's ops in-process — tman.Open with the
// options tmand would pass, httpapi.New on top — and times calls into each
// layer's public functions from here, outside the program. Ops are dealt
// round-robin onto rungs of a ladder; an op runs on exactly one rung, so no
// op runs twice and the store evolves as it does in the timed run:
//
//	httpapi  Server.ServeHTTP with an in-memory request and recorder
//	engine   tman.DB.Query*Ctx / PutBatch, then probes over that op's own
//	         result: compress (DecodePoints/EncodePoints of the returned or
//	         ingested points) and similarity (the measure between the query
//	         and each result)
//	index    the plan alone: Engine.SpatialCandidateStats /
//	         TemporalCandidateValues for the op's window; EncodeRaw +
//	         tr.Encode per trajectory for an ingest
//	kvstore  probes on the live store: Table.GetCtx on a sampled key and
//	         Table.Scan of the op type's median candidate count from it; for
//	         an ingest, MultiPut of rows the batch's size into a scratch table
//
// A layer's self time is estimated from differences of per-type medians
// between adjacent rungs; see layerTimes.
const (
	rungHTTP = iota
	rungEngine
	rungIndex
	rungKV
	numRungs
)

var rungNames = [numRungs]string{"httpapi", "engine", "index", "kvstore"}

// span is one timed call into a layer. Spans of one op share its id; the
// parent of every span is the op itself.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Type    string `json:"type"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// probe names below the rungs.
const (
	spanDecode  = "compress.decode"
	spanEncode  = "compress.encode"
	spanSimilar = "similarity"
	spanGet     = "kvstore.get"
	spanScan    = "kvstore.scan"
	spanPut     = "kvstore.put"
)

// probeTableName is the scratch table the kvstore rung writes to when the
// op is an ingest, beside the workload's tables on the same store.
const probeTableName = "benchmark-probe"

// tracedPass is the outcome of one in-process pass.
type tracedPass struct {
	spans []span
	// dur[name][kind] are the durations (ns) of every call.
	dur map[string]*[numKinds][]float64
	ops [numKinds]int
	// busyNS is the time spent inside the timed calls, sinkNS the time spent
	// storing their spans (clock reads included, so an upper bound).
	busyNS, sinkNS float64

	windows, candidates [numKinds][]float64 // engine rung reports

	httpAllocs, httpOps     float64
	engAllocs, engBytes     float64
	allocOps                float64
	planValues, planOps     float64 // index rung
	encodeNS, encodedTrajs  float64 // index rung, ingest
	scanNS, scanRows        float64
	putNS, putRows          float64
	decodeNS, decodedPts    float64
	encodePtsNS, encodedPts float64
	encodedBytes            float64
	simNS                   [3]float64 // frechet, dtw, hausdorff
	simPairs                float64
	planHits, planMisses    float64
	residentMB              float64
	cpuShare                map[string]float64 // profiled leg, by layer
	cpuSamples              int
	runsPerRegion           float64
	failures                []string
}

func (p *tracedPass) record(name string, id int, kind opKind, t0 time.Time, start, end time.Time) {
	d := p.dur[name]
	if d == nil {
		d = new([numKinds][]float64)
		p.dur[name] = d
	}
	d[kind] = append(d[kind], float64(end.Sub(start)))
	if name != rungNames[rungKV] { // that span covers the get and scan spans
		p.busyNS += float64(end.Sub(start))
	}
	s0 := time.Now()
	p.spans = append(p.spans, span{
		Name: name, Op: id, Type: kindNames[kind], Parent: "op",
		StartNS: int64(start.Sub(t0)), EndNS: int64(end.Sub(t0)),
	})
	p.sinkNS += float64(time.Since(s0))
}

// openLikeTmand opens the database with exactly the options cmd/tmand
// derives from the workload's flags, and the API server with tmand's
// handler options at -log-level warn.
func openLikeTmand(in *inputs, dataDir string) (*tman.DB, *httpapi.Server, error) {
	opts := []tman.Option{
		tman.WithShards(4),
		tman.WithShapeGrid(3, 3, 16),
		tman.WithShapeEncoding(tman.EncodingGreedy),
		tman.WithTraceSampling(0),
		tman.WithDataDir(dataDir),
	}
	if mb := in.spec.cacheMB; mb != 0 {
		opts = append(opts, tman.WithBlockTuning(0, 0, mb<<20))
	}
	db, err := tman.Open(in.ds.Boundary, opts...)
	if err != nil {
		return nil, nil, err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	return db, httpapi.New(db, httpapi.WithLogger(logger)), nil
}

// withOrdinal copies a template's trajectories under the TIDs of one send.
func withOrdinal(t *ingestTemplate, ordinal int) []*model.Trajectory {
	out := make([]*model.Trajectory, len(t.trajs))
	for i, tj := range t.trajs {
		c := *tj
		c.TID = tidWithOrdinal(tj.TID, ordinal)
		out[i] = &c
	}
	return out
}

// rungsFor lists the rungs an op type is dealt onto. The top-k queries plan
// by expanding windows inside the engine, which no public index call
// reproduces, so they skip the index rung.
func rungsFor(kind opKind) []int {
	if kind == opSimilar || kind == opNearest {
		return []int{rungHTTP, rungEngine, rungKV}
	}
	return []int{rungHTTP, rungEngine, rungIndex, rungKV}
}

// tracer holds what the rungs of one traced pass share.
type tracer struct {
	p       *tracedPass
	in      *inputs
	db      *tman.DB
	api     *httpapi.Server
	primary *kvstore.Table
	probe   *kvstore.Table // scratch table of the ingest probe
	tsIdx   *tshape.Index
	trIdx   *tr.Index
	t0      time.Time
	// keys of the primary table for the kvstore probes, sampled across the
	// key space and refreshed as an ingest workload grows the store.
	keys      [][]byte
	ms0, ms1  runtime.MemStats
	sinceKeys int
}

// runTraced performs one in-process pass of about `seconds`: the ladder for
// the first half, the profiled leg (see profile.go) for the second.
func (e *env) runTraced(in *inputs, seconds float64) (*tracedPass, error) {
	dataDir := filepath.Join(e.workDir, "traced-"+in.spec.name)
	defer os.RemoveAll(dataDir)
	db, api, err := openLikeTmand(in, dataDir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	eng := db.Engine()
	store := eng.Store()
	cfg := eng.Config()
	p := &tracedPass{dur: map[string]*[numKinds][]float64{}}
	tc := &tracer{p: p, in: in, db: db, api: api, primary: store.Table("primary"), probe: store.OpenTable(probeTableName)}
	if tc.tsIdx, err = tshape.New(tshape.Params{Alpha: cfg.Alpha, Beta: cfg.Beta, G: cfg.G}, eng.Space()); err != nil {
		return nil, err
	}
	if tc.trIdx, err = tr.New(cfg.PeriodMillis, cfg.N); err != nil {
		return nil, err
	}

	// Set-up as in the timed run: preload serially, settle, warm.
	for _, t := range in.preload {
		if err := db.PutBatch(t.trajs); err != nil {
			return nil, err
		}
	}
	store.Quiesce()
	ctx := context.Background()
	for _, o := range warmOps(in) {
		if _, _, err := engineCall(ctx, db, o); err != nil {
			return nil, err
		}
	}
	eng.ResetQueryPathStats()
	tc.sampleKeys()

	// The op stream: the two clients' streams interleaved, or the stream the
	// open-loop schedule was dealt from (unpaced — this pass measures busy
	// time, and runs on past the schedule's end).
	gens := []*opGen{clientGen(in, 0), clientGen(in, 1)}
	if in.spec.open {
		gens = []*opGen{newOpGen(in, in.seed+scheduleSeedOffset)}
	}
	nextOp := func(i int) *op {
		if g := gens[i%len(gens)]; in.spec.open {
			return g.fresh(g.pickKind())
		} else {
			return g.next()
		}
	}

	var dealt [numKinds]int
	tc.t0 = time.Now()
	half := time.Duration(seconds / 2 * float64(time.Second))
	id := 0
	for ; time.Since(tc.t0) < half; id++ {
		o := nextOp(id)
		rungs := rungsFor(o.kind)
		rung := rungs[dealt[o.kind]%len(rungs)]
		countAllocs := dealt[o.kind]%(4*len(rungs)) < len(rungs) // every 4th op of a rung
		dealt[o.kind]++
		p.ops[o.kind]++
		switch rung {
		case rungHTTP:
			tc.httpRung(id, o, countAllocs)
		case rungEngine:
			tc.engineRung(ctx, id, o, countAllocs)
		case rungIndex:
			tc.indexRung(id, o)
		case rungKV:
			tc.kvRung(ctx, id, o)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	for ; time.Since(tc.t0) < 2*half; id++ {
		tc.serve(nextOp(id))
	}
	pprof.StopCPUProfile()
	if p.cpuShare, p.cpuSamples, err = layerShares(prof.Bytes()); err != nil {
		return nil, err
	}

	store.DropTable(probeTableName) // keep the probe's rows out of the resident size
	store.Quiesce()
	ps := eng.PlanCacheStats()
	p.planHits, p.planMisses = float64(ps.Hits), float64(ps.Misses)
	p.residentMB = float64(store.ResidentRunBytes()) / (1 << 20)
	runs := 0
	for _, n := range store.TierRunHistogram() {
		runs += n
	}
	p.runsPerRegion = ratio(float64(runs), float64(store.TotalRegions()))
	return p, nil
}

func (t *tracer) failf(format string, args ...any) {
	if len(t.p.failures) < 5 {
		t.p.failures = append(t.p.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tracer) sampleKeys() {
	var n atomic.Int64 // regions are scanned in parallel
	kvs := t.primary.Scan(nil, nil, kvstore.FilterFunc(func(_, _ []byte) bool { return n.Add(1)%97 == 1 }), 0)
	t.keys = t.keys[:0]
	for _, kv := range kvs {
		t.keys = append(t.keys, append([]byte(nil), kv.Key...))
	}
	t.sinceKeys = 0
}

// serve runs one op through Server.ServeHTTP with an in-memory request and
// recorder and returns the call's start and end.
func (t *tracer) serve(o *op) (start, end time.Time) {
	var body io.Reader
	if o.tmpl != nil {
		body = bytes.NewReader(o.tmpl.render(nil, o.ordinal))
	} else if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req := httptest.NewRequest(o.method, o.url, body)
	rec := httptest.NewRecorder()
	start = time.Now()
	t.api.ServeHTTP(rec, req)
	end = time.Now()
	if rec.Code != 200 {
		t.failf("traced %s: status %d", kindNames[o.kind], rec.Code)
	}
	return start, end
}

func (t *tracer) httpRung(id int, o *op, countAllocs bool) {
	p := t.p
	if countAllocs {
		runtime.ReadMemStats(&t.ms0)
	}
	start, end := t.serve(o)
	if countAllocs {
		// The request and recorder are built inside the bracket; they are a
		// few dozen of the thousands of allocations counted.
		runtime.ReadMemStats(&t.ms1)
		p.httpAllocs += float64(t.ms1.Mallocs - t.ms0.Mallocs)
		p.httpOps++
	}
	p.record(rungNames[rungHTTP], id, o.kind, t.t0, start, end)
}

func (t *tracer) engineRung(ctx context.Context, id int, o *op, countAllocs bool) {
	p := t.p
	var batch []*model.Trajectory
	if o.kind == opIngest {
		batch = withOrdinal(o.tmpl, o.ordinal)
	}
	if countAllocs {
		runtime.ReadMemStats(&t.ms0)
	}
	start := time.Now()
	var trajs []*model.Trajectory
	var rep tman.Report
	var err error
	if o.kind == opIngest {
		err = t.db.PutBatch(batch)
	} else {
		trajs, rep, err = engineCall(ctx, t.db, o)
	}
	end := time.Now()
	if countAllocs {
		runtime.ReadMemStats(&t.ms1)
		p.engAllocs += float64(t.ms1.Mallocs - t.ms0.Mallocs)
		p.engBytes += float64(t.ms1.TotalAlloc - t.ms0.TotalAlloc)
		p.allocOps++
	}
	p.record(rungNames[rungEngine], id, o.kind, t.t0, start, end)
	if err != nil {
		t.failf("traced %s: %v", kindNames[o.kind], err)
	}
	if o.kind == opIngest {
		trajs = batch
	} else {
		p.windows[o.kind] = append(p.windows[o.kind], float64(rep.Windows))
		p.candidates[o.kind] = append(p.candidates[o.kind], float64(rep.Candidates))
	}
	t.probeResult(id, o, trajs)
}

func (t *tracer) indexRung(id int, o *op) {
	p := t.p
	eng := t.db.Engine()
	start := time.Now()
	var values uint64
	if o.kind == opIngest {
		for _, tj := range o.tmpl.trajs {
			elem, bits := t.tsIdx.EncodeRaw(tj)
			values += elem ^ bits ^ t.trIdx.Encode(tj.TimeRange())
		}
	} else {
		if o.kind != opSpace {
			values += eng.TemporalCandidateValues(o.tr)
		}
		if o.kind == opSpace || o.kind == opSpaceTime {
			v, _ := eng.SpatialCandidateStats(o.rect)
			values += v
		}
	}
	end := time.Now()
	p.record(rungNames[rungIndex], id, o.kind, t.t0, start, end)
	if o.kind == opIngest {
		p.encodeNS += float64(end.Sub(start))
		p.encodedTrajs += float64(len(o.tmpl.trajs))
	} else {
		p.planValues += float64(values)
		p.planOps++
	}
}

func (t *tracer) kvRung(ctx context.Context, id int, o *op) {
	p := t.p
	if o.kind == opIngest {
		t.probePut(id, o)
		return
	}
	if t.sinceKeys++; len(t.keys) == 0 || (t.in.spec.mix[opIngest] > 0 && t.sinceKeys >= 64) {
		t.sampleKeys()
	}
	if len(t.keys) == 0 {
		return // nothing stored yet
	}
	key := t.keys[id%len(t.keys)]
	limit := int(median(p.candidates[o.kind]))
	if limit < 1 {
		limit = 64
	}
	start := time.Now()
	_, _, err := t.primary.GetCtx(ctx, key)
	mid := time.Now()
	rows := t.primary.Scan(key, nil, nil, limit)
	end := time.Now()
	p.record(spanGet, id, o.kind, t.t0, start, mid)
	p.record(spanScan, id, o.kind, t.t0, mid, end)
	p.record(rungNames[rungKV], id, o.kind, t.t0, start, end)
	if err != nil {
		t.failf("traced get: %v", err)
	}
	p.scanNS += float64(end.Sub(mid))
	p.scanRows += float64(len(rows))
}

// probePut times what an ingest of this batch asks of the store, on the
// scratch table: one MultiPut of rows the size of the primary's (key → the
// encoded points) and three of rows the size of a secondary index's (key →
// key), as Engine.BatchPut issues them.
func (t *tracer) probePut(id int, o *op) {
	p, table, t0 := t.p, t.probe, t.t0
	batch := withOrdinal(o.tmpl, o.ordinal)
	var puts [4][]kvstore.KV
	for i := range puts {
		puts[i] = make([]kvstore.KV, len(batch))
		for j, t := range batch {
			key := []byte(fmt.Sprintf("%d/%s", i, t.TID))
			puts[i][j] = kvstore.KV{Key: key, Value: key}
			if i == 0 {
				puts[i][j].Value = compress.EncodePoints(t.Points)
			}
		}
	}
	start := time.Now()
	for _, rows := range puts {
		table.MultiPut(rows)
	}
	end := time.Now()
	p.record(spanPut, id, opIngest, t0, start, end)
	p.record(rungNames[rungKV], id, opIngest, t0, start, end)
	p.putNS += float64(end.Sub(start))
	p.putRows += float64(len(batch))
}

// engineCall runs a read op through the public DB API the way its HTTP
// handler does (same 5 s deadline).
func engineCall(ctx context.Context, db *tman.DB, o *op) ([]*model.Trajectory, tman.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	switch o.kind {
	case opTime:
		return db.QueryTimeRangeCtx(ctx, o.tr)
	case opSpace:
		return db.QuerySpaceCtx(ctx, o.rect)
	case opSpaceTime:
		return db.QuerySpaceTimeCtx(ctx, o.rect, o.tr)
	case opObject:
		return db.QueryObjectCtx(ctx, o.oid, o.tr)
	case opSimilar:
		return db.QuerySimilarTopKCtx(ctx, o.query, tman.Frechet, similarK)
	case opNearest:
		return db.QueryNearestCtx(ctx, o.x, o.y, nearestK)
	}
	return nil, tman.Report{}, fmt.Errorf("benchmark: %s is not a read", kindNames[o.kind])
}

// probeResult times the compress and similarity layers over the points an
// engine-rung op just returned (or, for an ingest, just stored).
func (t *tracer) probeResult(id int, o *op, trajs []*model.Trajectory) {
	p, t0, orc := t.p, t.t0, t.in.oracle
	if len(trajs) == 0 {
		return
	}
	blobs := make([][]byte, len(trajs))
	start := time.Now()
	for i, t := range trajs {
		blobs[i] = compress.EncodePoints(t.Points)
	}
	mid := time.Now()
	pts := 0
	for _, b := range blobs {
		dec, err := compress.DecodePoints(b)
		if err != nil {
			continue
		}
		pts += len(dec)
		p.encodedBytes += float64(len(b))
	}
	end := time.Now()
	p.record(spanEncode, id, o.kind, t0, start, mid)
	p.record(spanDecode, id, o.kind, t0, mid, end)
	p.encodePtsNS += float64(mid.Sub(start))
	p.decodeNS += float64(end.Sub(mid))
	p.encodedPts += float64(pts)
	p.decodedPts += float64(pts)
	if o.kind != opSimilar {
		return
	}
	nq := orc.normalize(o.query.Points)
	norm := make([][]model.Point, len(trajs))
	for i, t := range trajs {
		norm[i] = orc.normalize(t.Points)
	}
	for m, measure := range []similarity.Measure{similarity.Frechet, similarity.DTW, similarity.Hausdorff} {
		start := time.Now()
		for _, n := range norm {
			similarity.Distance(measure, nq, n)
		}
		end := time.Now()
		p.simNS[m] += float64(end.Sub(start))
		if measure == similarity.Frechet {
			p.record(spanSimilar, id, o.kind, t0, start, end)
		}
	}
	p.simPairs += float64(len(norm))
}

// med returns the median duration (ns) of one span name for one op type.
func (p *tracedPass) med(name string, kind opKind) float64 {
	d := p.dur[name]
	if d == nil {
		return 0
	}
	return median(d[kind])
}

// layerTimes are the mix-weighted busy and self times of the ladder, in ns
// per op. Self times are estimates: differences of per-type medians between
// adjacent rungs, floored at zero, weighted by each type's share of the ops.
//
//	httpapi.self = httpapi − engine
//	engine.self  = engine − index·(plan miss rate) − kvstore − compress − similarity
//
// The index rung always enumerates, while the engine replays memoised
// plans, hence the miss-rate factor.
type layerTimes struct {
	httpBusy, engineBusy, indexPlan             float64
	httpSelf, engineSelf, index, kv, comp, simi float64
}

func (p *tracedPass) layerTimes() layerTimes {
	var lt layerTimes
	total := 0
	for _, n := range p.ops {
		total += n
	}
	if total == 0 {
		return lt
	}
	miss := 1.0
	if p.planHits+p.planMisses > 0 {
		miss = p.planMisses / (p.planHits + p.planMisses)
	}
	for k := opKind(0); k < numKinds; k++ {
		if p.ops[k] == 0 {
			continue
		}
		w := float64(p.ops[k]) / float64(total)
		h, e := p.med(rungNames[rungHTTP], k), p.med(rungNames[rungEngine], k)
		plan := p.med(rungNames[rungIndex], k)
		idx := plan
		if k != opIngest {
			idx *= miss
		}
		kv := p.med(spanScan, k)
		if k == opIngest {
			kv = p.med(spanPut, k)
		}
		comp := p.med(spanDecode, k)
		if k == opIngest {
			comp = p.med(spanEncode, k)
		}
		simi := p.med(spanSimilar, k)
		lt.httpBusy += w * h
		lt.engineBusy += w * e
		lt.indexPlan += w * plan
		lt.httpSelf += w * max(0, h-e)
		lt.engineSelf += w * max(0, e-idx-kv-comp-simi)
		lt.index += w * idx
		lt.kv += w * kv
		lt.comp += w * comp
		lt.simi += w * simi
	}
	return lt
}
