package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"github.com/tman-db/tman/internal/compress"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/workload"
)

// opKind is one request type of the mixes. The order is the tman-loadgen
// order so mix tables read the same in both tools.
type opKind int

const (
	opIngest opKind = iota
	opTime
	opSpace
	opSpaceTime
	opObject
	opSimilar
	opNearest
	numKinds
)

var kindNames = [numKinds]string{"ingest", "time", "space", "spacetime", "object", "similar", "nearest"}

const (
	hourMS   = int64(3600_000)
	minuteMS = int64(60_000)

	// latencyLimitMS is the repo's SLO objective: an op answered later than
	// this (from send on a closed loop, from its due time on the open loop)
	// does not count towards goodput_frac.
	latencyLimitMS = 250.0

	// checkEvery: every checkEvery-th op of a client is decoded in full and
	// compared with the brute-force oracle after the window.
	checkEvery = 20

	similarK = 5
	nearestK = 8
)

// windows are the query-window sizes of a workload.
type windows struct {
	timeMS    int64
	spaceKm   float64
	stSpaceKm float64
	stTimeMS  int64
	objectMS  int64
}

// workloadSpec is the frozen definition of one named workload. Everything a
// later claim could depend on lives here and in benchmark/README.md; the
// program under test only ever sees the requests generated from it.
type workloadSpec struct {
	name string
	// open selects the open loop: Poisson arrivals at rate req/s dealt over
	// the two connections, latency counted from each request's due time.
	// Otherwise it is a closed loop of two clients.
	open bool
	rate float64
	// preload is the number of trajectories ingested (and quiesced) during
	// set-up; cacheMB is tmand's -block-cache-mb (0 keeps the 32 MiB default).
	preload int
	cacheMB int
	mix     [numKinds]int // weights, sum 100
	// pool > 0 draws read ops uniformly from a fixed pool of that many
	// windows (every plan and block is reused); 0 makes every op a fresh
	// window that is never repeated.
	pool int
	// batch is the trajectories per ingest request and templates the number
	// of distinct pre-marshalled ingest bodies the stream cycles through.
	batch     int
	templates int
	win       windows
	// warmOps fresh ops are run untimed before the window on workloads
	// without a pool (the pool workloads run every pool entry once).
	warmOps int
	// minSamples is the run-validity floor on completed ops in the window.
	minSamples int
}

const clients = 2 // two keep-alive connections / sender goroutines, never more

var workloads = []workloadSpec{
	{
		name: "hot-read", preload: 20000, pool: 512,
		mix:        [numKinds]int{opTime: 25, opSpace: 25, opSpaceTime: 25, opObject: 25},
		win:        windows{timeMS: hourMS, spaceKm: 1.5, stSpaceKm: 2.5, stTimeMS: 6 * hourMS, objectMS: 12 * hourMS},
		minSamples: 1000,
	},
	{
		name: "cold-read", preload: 40000, cacheMB: 2,
		mix:        [numKinds]int{opTime: 15, opSpace: 15, opSpaceTime: 40, opObject: 30},
		win:        windows{timeMS: 10 * minuteMS, spaceKm: 0.5, stSpaceKm: 2.5, stTimeMS: 6 * hourMS, objectMS: 12 * hourMS},
		warmOps:    200,
		minSamples: 1000,
	},
	{
		name: "bulk-ingest", batch: 200, templates: 100,
		mix:        [numKinds]int{opIngest: 100},
		minSamples: 500,
	},
	{
		name: "serve-mix", open: true, rate: 50, preload: 20000, batch: 50, templates: 400,
		mix:        [numKinds]int{opIngest: 15, opTime: 20, opSpace: 15, opSpaceTime: 15, opObject: 15, opSimilar: 5, opNearest: 15},
		win:        windows{timeMS: hourMS, spaceKm: 1.5, stSpaceKm: 2.5, stTimeMS: 6 * hourMS, objectMS: 12 * hourMS},
		warmOps:    300,
		minSamples: 300,
	},
}

// scaled shrinks a spec for the -smoke pass: tiny data, same shape.
func (w workloadSpec) scaled(div int) workloadSpec {
	if div <= 1 {
		return w
	}
	if w.preload > 0 {
		w.preload = max(600, w.preload/div)
	}
	if w.pool > 0 {
		w.pool = max(32, w.pool/div)
	}
	if w.templates > 0 {
		w.templates = max(8, w.templates/div)
	}
	if w.batch > 0 {
		w.batch = max(10, w.batch/4)
	}
	w.warmOps = w.warmOps / div
	w.minSamples = 1
	return w
}

// serverArgs are the tmand flags of the workload beyond -addr and -data:
// tracing and request logging off, the Lorry boundary, and the block-cache
// size where the workload sets one. Nothing else leaves its default — in
// particular the WAL sync policy (flush to the OS on every batch, no fsync).
func (w *workloadSpec) serverArgs() []string {
	args := []string{"-boundary", "70,0,140,55", "-trace-sample", "0", "-log-level", "warn"}
	if w.cacheMB != 0 {
		args = append(args, "-block-cache-mb", strconv.Itoa(w.cacheMB))
	}
	return args
}

// op is one generated request together with the inputs the oracle needs to
// recompute its answer.
type op struct {
	kind   opKind
	method string
	url    string // path + query
	body   []byte // POST /query/similar body; ingest bodies come from tmpl

	tr    model.TimeRange
	rect  geo.Rect
	oid   string
	x, y  float64
	query *model.Trajectory

	tmpl    *ingestTemplate
	ordinal int

	// wantTID marks a durability point check: the one trajectory the answer
	// must contain.
	wantTID string
}

// ingestTemplate is one pre-marshalled PUT /trajectories body. Every use
// patches a fresh fixed-width ordinal into each TID, so a template can be
// sent any number of times and always inserts new rows; the marshalling
// cost is paid once, before any timed window.
type ingestTemplate struct {
	trajs []*model.Trajectory // as generated, TIDs at ordinal 0
	body  []byte
	slots []int // offset of each 8-digit ordinal inside body
	// userBytes is the raw size of the batch: 24 B per point plus the ids.
	userBytes int64
}

const ordinalDigits = 8

// Every generated TID ends in an 8-digit send ordinal, "-00000000" as
// generated. tidWithOrdinal gives the TID the same trajectory is stored
// under when its template is sent for the ordinal-th time.
func tidWithOrdinal(tid string, ordinal int) string {
	return fmt.Sprintf("%s%0*d", tid[:len(tid)-ordinalDigits], ordinalDigits, ordinal)
}

func newIngestTemplate(trajs []*model.Trajectory) *ingestTemplate {
	payload := make([]httpapi.TrajectoryJSON, len(trajs))
	t := &ingestTemplate{trajs: trajs}
	for i, tj := range trajs {
		payload[i] = httpapi.TrajectoryJSON{OID: tj.OID, TID: tj.TID, Points: make([]httpapi.PointJSON, len(tj.Points))}
		for j, p := range tj.Points {
			payload[i].Points[j] = httpapi.PointJSON{X: p.X, Y: p.Y, T: p.T}
		}
		t.userBytes += int64(24*len(tj.Points) + len(tj.OID) + len(tj.TID))
	}
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // plain structs of floats, ints and strings cannot fail
	}
	t.body = body
	off := 0
	for _, tj := range trajs {
		needle := []byte(`"tid":"` + tj.TID + `"`)
		i := bytes.Index(body[off:], needle)
		if i < 0 {
			panic("benchmark: ingest template lost a TID")
		}
		off += i + len(needle) - 1
		t.slots = append(t.slots, off-ordinalDigits)
	}
	return t
}

// render writes the body with the given ordinal patched into every TID.
func (t *ingestTemplate) render(dst []byte, ordinal int) []byte {
	dst = append(dst[:0], t.body...)
	var digits [ordinalDigits]byte
	for i, v := ordinalDigits-1, ordinal; i >= 0; i, v = i-1, v/10 {
		digits[i] = byte('0' + v%10)
	}
	for _, s := range t.slots {
		copy(dst[s:s+ordinalDigits], digits[:])
	}
	return dst
}

// inputs is everything generated from the seed for one workload: the
// preloaded dataset, the ingest stream, and the oracle over both.
type inputs struct {
	spec      workloadSpec
	seed      int64
	ds        *workload.Dataset // preloaded trajectories (TIDs "p-…")
	preload   []*ingestTemplate // ds in batches of preloadBatch
	templates []*ingestTemplate // the in-window ingest stream (TIDs "w-…")
	oracle    *oracle
	pool      []*op // fixed window pool, nil on fresh-window workloads
	schedule  []scheduled
}

const preloadBatch = 500

// snapToStoreGrid rounds coordinates to the store's fixed-point grid
// (compress.CoordScale), so the trajectories the oracle holds are bit-equal
// to the ones tmand returns and edge-touching windows cannot disagree.
func snapToStoreGrid(ds *workload.Dataset, tidPrefix string) {
	for i, t := range ds.Trajs {
		t.TID = fmt.Sprintf("%s-%07d-%0*d", tidPrefix, i, ordinalDigits, 0)
		for j := range t.Points {
			t.Points[j].X = math.Round(t.Points[j].X*compress.CoordScale) / compress.CoordScale
			t.Points[j].Y = math.Round(t.Points[j].Y*compress.CoordScale) / compress.CoordScale
		}
	}
}

func batches(trajs []*model.Trajectory, size int) []*ingestTemplate {
	var out []*ingestTemplate
	for lo := 0; lo < len(trajs); lo += size {
		hi := lo + size
		if hi > len(trajs) {
			hi = len(trajs)
		}
		out = append(out, newIngestTemplate(trajs[lo:hi]))
	}
	return out
}

// generate builds the inputs of a workload from the seed. seconds is only
// used to size the open-loop schedule.
func generate(spec workloadSpec, seed int64, seconds float64) *inputs {
	in := &inputs{spec: spec, seed: seed}
	// The query sampler anchors windows on stored trajectories; a workload
	// without preload (bulk-ingest) has no read ops and needs no dataset.
	in.ds = workload.TLorrySim(spec.preload, seed)
	snapToStoreGrid(in.ds, "p")
	in.preload = batches(in.ds.Trajs, preloadBatch)
	var stream *workload.Dataset
	if spec.templates > 0 {
		stream = workload.TLorrySim(spec.templates*spec.batch, seed+1)
		snapToStoreGrid(stream, "w")
		in.templates = batches(stream.Trajs, spec.batch)
	}
	in.oracle = newOracle(in.ds, stream)
	if spec.pool > 0 {
		g := newOpGen(in, seed+2)
		for i := 0; i < spec.pool; i++ {
			in.pool = append(in.pool, g.fresh(g.pickKind()))
		}
	}
	if spec.open {
		in.schedule = poissonSchedule(in, seed+scheduleSeedOffset, seconds)
	}
	return in
}

// opGen is one deterministic op stream. Each closed-loop client owns one
// (seeded seed+10+client), so the ops a client sends do not depend on how
// fast the other one runs.
type opGen struct {
	in      *inputs
	rng     *rand.Rand
	deck    []opKind // see pickKind
	dealt   int
	sampler *workload.QuerySampler
	ingestN int // next ingest slot of this stream
	stride  int // ingest slots advance by stride so streams never collide
}

func newOpGen(in *inputs, seed int64) *opGen {
	return &opGen{
		in:      in,
		rng:     rand.New(rand.NewSource(seed)),
		sampler: workload.NewQuerySampler(in.ds, seed+1000),
		stride:  1,
	}
}

// clientGen is the stream of closed-loop client c.
func clientGen(in *inputs, c int) *opGen {
	g := newOpGen(in, in.seed+10+int64(c))
	g.ingestN, g.stride = c, clients
	return g
}

// pickKind deals op types from a shuffled deck that holds each type in
// exactly the proportions of the mix (20 cards for a mix in steps of 5 %)
// and is reshuffled when it runs out. Every run therefore sends the types in
// the same proportions whatever the seed; only their order is random. With
// independent draws the number of expensive ops (one similarity query costs
// as much as dozens of object queries) would differ by ±10 % between seeds
// and the metrics with it.
func (g *opGen) pickKind() opKind {
	if g.dealt == len(g.deck) {
		if g.deck == nil {
			div := 0
			for _, w := range g.in.spec.mix {
				div = gcd(div, w)
			}
			for k, w := range g.in.spec.mix {
				for i := 0; i < w/div; i++ {
					g.deck = append(g.deck, opKind(k))
				}
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.dealt = 0
	}
	g.dealt++
	return g.deck[g.dealt-1]
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// next returns the stream's next op: a draw from the pool when the workload
// has one, otherwise a fresh window (or the next ingest batch).
func (g *opGen) next() *op {
	if g.in.pool != nil {
		return g.in.pool[g.rng.Intn(len(g.in.pool))]
	}
	return g.fresh(g.pickKind())
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// round6 keeps window coordinates at six decimals so the URL carries the
// exact value the oracle evaluates.
func round6(r geo.Rect) geo.Rect {
	f := func(v float64) float64 { return math.Round(v*1e6) / 1e6 }
	return geo.Rect{MinX: f(r.MinX), MinY: f(r.MinY), MaxX: f(r.MaxX), MaxY: f(r.MaxY)}
}

const deadlineParam = "&deadline_ms=5000"

func (g *opGen) fresh(kind opKind) *op {
	w := g.in.spec.win
	o := &op{kind: kind, method: "GET"}
	switch kind {
	case opIngest:
		slot := g.ingestN
		g.ingestN += g.stride
		n := len(g.in.templates)
		o.method, o.url = "PUT", "/trajectories"
		o.tmpl, o.ordinal = g.in.templates[slot%n], slot/n
	case opTime:
		o.tr = g.sampler.TimeWindow(w.timeMS)
		o.url = fmt.Sprintf("/query/time?start=%d&end=%d", o.tr.Start, o.tr.End) + deadlineParam
	case opSpace:
		o.rect = round6(g.sampler.SpaceWindow(w.spaceKm))
		o.url = "/query/space?" + rectQuery(o.rect) + deadlineParam
	case opSpaceTime:
		o.rect = round6(g.sampler.SpaceWindow(w.stSpaceKm))
		o.tr = g.sampler.TimeWindow(w.stTimeMS)
		o.url = fmt.Sprintf("/query/spacetime?%s&start=%d&end=%d", rectQuery(o.rect), o.tr.Start, o.tr.End) + deadlineParam
	case opObject:
		o.oid, o.tr = g.sampler.ObjectWindow(w.objectMS)
		o.url = fmt.Sprintf("/query/object?oid=%s&start=%d&end=%d", o.oid, o.tr.Start, o.tr.End) + deadlineParam
	case opNearest:
		r := round6(g.sampler.SpaceWindow(1))
		o.x, o.y = r.MinX, r.MinY
		o.url = fmt.Sprintf("/query/nearest?x=%s&y=%s&k=%d", fmtF(o.x), fmtF(o.y), nearestK) + deadlineParam
	case opSimilar:
		o.query = g.sampler.QueryTrajectory()
		tj := httpapi.TrajectoryJSON{OID: o.query.OID, TID: o.query.TID, Points: make([]httpapi.PointJSON, len(o.query.Points))}
		for i, p := range o.query.Points {
			tj.Points[i] = httpapi.PointJSON{X: p.X, Y: p.Y, T: p.T}
		}
		body, err := json.Marshal(map[string]any{"query": tj, "measure": "frechet", "k": similarK})
		if err != nil {
			panic(err)
		}
		o.method, o.body = "POST", body
		o.url = "/query/similar?" + deadlineParam[1:]
	}
	return o
}

func rectQuery(r geo.Rect) string {
	return "minx=" + fmtF(r.MinX) + "&miny=" + fmtF(r.MinY) + "&maxx=" + fmtF(r.MaxX) + "&maxy=" + fmtF(r.MaxY)
}

// scheduleSeedOffset separates the open-loop op stream's seed from the
// workload seed; the traced pass replays that stream.
const scheduleSeedOffset = 3

// scheduled is one open-loop arrival.
type scheduled struct {
	dueNS int64 // offset from window start
	op    *op
	check bool // every checkEvery-th read of the schedule is decoded
}

// poissonSchedule lays out the open-loop arrivals of the whole window
// before it starts, ops from one stream. The arrivals are a Poisson process
// of rate spec.rate conditioned on its count: exactly rate × seconds of
// them, at sorted uniform instants — which is how the points of a Poisson
// process are distributed once their number is known. Gaps are exponential
// and bursts happen as in the unconditioned process, but every seed offers
// the same number of ops, so ops_per_s does not carry the ±5 % a free count
// would add.
func poissonSchedule(in *inputs, seed int64, seconds float64) []scheduled {
	g := newOpGen(in, seed)
	arrivals := rand.New(rand.NewSource(seed + 1))
	due := make([]float64, int(in.spec.rate*seconds+0.5))
	for i := range due {
		due[i] = arrivals.Float64() * seconds
	}
	sort.Float64s(due)
	out := make([]scheduled, len(due))
	reads := 0
	for i, t := range due {
		o := g.fresh(g.pickKind())
		if o.kind != opIngest {
			reads++
		}
		out[i] = scheduled{dueNS: int64(t * 1e9), op: o, check: reads%checkEvery == 0}
	}
	return out
}
