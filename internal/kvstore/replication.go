package kvstore

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"time"
)

// Replication: with Options.Replicas > 1 every region is a replication
// group — one leader plus N-1 followers placed on distinct simulated nodes.
// Followers are kept in sync by shipping the same CRC-framed record bodies
// the WAL writes (op 1/2/3, group-commit batches included), wrapped in a
// ship frame that adds an epoch and a dense per-group sequence number:
//
//	u32 crc   (castagnoli, over everything after this field)
//	u64 epoch (promotion generation; fences stale leaders)
//	u64 seq   (dense per-group commit sequence)
//	payload   (a WAL record body: u8 op | u16 tableLen|table | ...)
//
// Shipping is synchronous under the group lock: a write is acknowledged only
// after every live follower applied its frame, so an acked write survives
// any single leader loss while at least one follower is up — the no-acked-
// write-loss invariant the chaos suite asserts. Followers verify CRC, epoch
// and sequence on every frame: corrupt frames and stale-epoch frames are
// rejected (the follower is marked down for catch-up), duplicates are
// ignored idempotently, and a gap forces catch-up before new frames apply.
//
// Catch-up has two gears, as in log-tail replication designs: a follower
// whose last applied sequence still falls inside the leader's retained frame
// tail replays just the missing tail; one that fell off the tail (or a brand
// new replica) is rebuilt from a leader snapshot (live rows, one sorted run)
// and resumes at the leader's current sequence.
//
// Failover: when a node is killed (Store.KillNode — the PR 1 fault model's
// hard version of a dead region server), every group led there promotes its
// best live follower — highest applied sequence, lowest node id as the
// deterministic tie-break — by swapping LSM state with the leader region
// object in place, so table routing never changes. Promotion bumps the
// group epoch; the demoted copy survives as a down follower and, because
// every post-promotion frame carries the new epoch, a stale leader's
// unshipped state can never be mistaken for committed data when the node
// revives — it is caught back up from the new leader instead.
//
// Lock order: replGroup.mu → region.flushMu → region.mu (leader before
// follower regions). Follower regions never have a rep group of their own,
// so applying a frame to one cannot re-enter the ship path.

// Replication errors. ErrNodeDead is retryable (the client retries and the
// scan path re-resolves a serving replica between attempts); the ship-stream
// errors are verdicts on a single frame, surfaced by tests and catch-up.
var (
	// ErrNodeDead is returned by client RPC attempts against a region whose
	// serving node was killed. Retryable: a retry may land after failover.
	ErrNodeDead = errors.New("kvstore: node dead")
	// ErrShipCorrupt means a shipped frame failed CRC or length validation.
	ErrShipCorrupt = errors.New("kvstore: corrupt replication frame")
	// ErrShipStaleEpoch means a frame carried an older epoch than the
	// follower has seen — a fenced stale leader.
	ErrShipStaleEpoch = errors.New("kvstore: stale replication epoch")
	// ErrShipGap means a frame skipped sequence numbers; the follower must
	// catch up before applying it.
	ErrShipGap = errors.New("kvstore: replication sequence gap")
)

// ReadPref lets a query opt into follower reads with a staleness bound.
type ReadPref struct {
	// MaxStalenessMS is the largest tolerable follower lag in milliseconds.
	// 0 accepts only fully caught-up followers; negative disables follower
	// reads (leader only).
	MaxStalenessMS int64
}

type readPrefKey struct{}

// WithReadPref attaches a follower-read preference to ctx. Scans under this
// context may be served by any follower whose replication lag is within the
// bound; writes and point gets always go to the leader.
func WithReadPref(ctx context.Context, p ReadPref) context.Context {
	return context.WithValue(ctx, readPrefKey{}, p)
}

// ReadPrefFrom extracts a follower-read preference, if any.
func ReadPrefFrom(ctx context.Context) (ReadPref, bool) {
	p, ok := ctx.Value(readPrefKey{}).(ReadPref)
	return p, ok
}

// shipEntry is one retained frame of the leader's log tail.
type shipEntry struct {
	seq         int64
	commitNanos int64 // wall-clock commit time; drives the lag/staleness bound
	frame       []byte
}

// follower is one replica of a group. All fields are guarded by the group
// mutex; reg itself has its own locks and rep == nil.
type follower struct {
	reg  *region
	node int
	// epoch/seq are the newest frame the follower accepted.
	epoch int64
	seq   int64
	// appliedCommitNanos is the commit time of the last applied frame — the
	// basis of the staleness bound (data is at least as fresh as this).
	appliedCommitNanos int64
	// down marks a follower that stopped applying frames (dead node,
	// rejected frame, demoted stale leader). Down followers are skipped by
	// shipping and reads until catch-up revives them.
	down bool
	// stale marks a copy whose local state diverged from committed history
	// (a demoted leader with unshipped writes): catch-up must rebuild it
	// from a snapshot, never replay the tail on top of it.
	stale bool
}

// replGroup is the replication state of one leader region.
type replGroup struct {
	store  *Store
	leader *region

	// mu orders every ship, catch-up, promotion and follower-pick against
	// each other. It is taken before any region lock (see the lock order
	// note above) and never held during a leader scan serving a client.
	mu sync.Mutex

	epoch           int64
	seq             int64
	lastCommitNanos int64
	followers       []*follower
	tail            []shipEntry // dense seq window, oldest first
	tailMax         int
	rr              int // round-robin rotation for follower picks
}

func (g *replGroup) lock()   { g.mu.Lock() }
func (g *replGroup) unlock() { g.mu.Unlock() }

// encodeShipFrame wraps one WAL record payload with epoch, sequence and CRC.
func encodeShipFrame(epoch, seq int64, payload []byte) []byte {
	out := make([]byte, shipHeaderLen+len(payload))
	binary.LittleEndian.PutUint64(out[4:12], uint64(epoch))
	binary.LittleEndian.PutUint64(out[12:20], uint64(seq))
	copy(out[shipHeaderLen:], payload)
	binary.LittleEndian.PutUint32(out[:4], crc32.Checksum(out[4:], crcTable))
	return out
}

const shipHeaderLen = 4 + 8 + 8

// decodeShipFrame validates CRC and structure, returning the frame's epoch,
// sequence and decoded WAL record. Any truncation, bit flip, or implausible
// length yields ErrShipCorrupt without large allocations.
func decodeShipFrame(frame []byte) (epoch, seq int64, rec walRecord, err error) {
	if len(frame) < shipHeaderLen+1 {
		return 0, 0, rec, ErrShipCorrupt
	}
	if crc32.Checksum(frame[4:], crcTable) != binary.LittleEndian.Uint32(frame[:4]) {
		return 0, 0, rec, ErrShipCorrupt
	}
	epoch = int64(binary.LittleEndian.Uint64(frame[4:12]))
	seq = int64(binary.LittleEndian.Uint64(frame[12:20]))
	rec, err = decodeWALRecord(frame[shipHeaderLen:])
	if err != nil {
		return 0, 0, rec, err
	}
	return epoch, seq, rec, nil
}

// decodeWALRecord parses one in-memory WAL record body with the same length
// discipline as replayWAL: every declared length is bounded by the bytes
// actually present, and trailing garbage is corruption.
func decodeWALRecord(b []byte) (walRecord, error) {
	var rec walRecord
	p := 0
	take := func(n int) ([]byte, bool) {
		if n < 0 || p+n > len(b) {
			return nil, false
		}
		s := b[p : p+n]
		p += n
		return s, true
	}
	op, ok := take(1)
	if !ok {
		return rec, ErrShipCorrupt
	}
	rec.op = op[0]
	tl, ok := take(2)
	if !ok {
		return rec, ErrShipCorrupt
	}
	table, ok := take(int(binary.LittleEndian.Uint16(tl)))
	if !ok {
		return rec, ErrShipCorrupt
	}
	rec.table = string(table)
	readLen := func() (int, bool) {
		l, ok := take(4)
		if !ok {
			return 0, false
		}
		return int(binary.LittleEndian.Uint32(l)), true
	}
	switch rec.op {
	case opBatch:
		count, ok := readLen()
		if !ok {
			return rec, ErrShipCorrupt
		}
		// Every row needs at least its two length prefixes.
		if count < 0 || count > (len(b)-p)/8 {
			return rec, ErrShipCorrupt
		}
		rec.rows = make([]KV, 0, count)
		for i := 0; i < count; i++ {
			kl, ok := readLen()
			if !ok {
				return rec, ErrShipCorrupt
			}
			key, ok := take(kl)
			if !ok {
				return rec, ErrShipCorrupt
			}
			vl, ok := readLen()
			if !ok {
				return rec, ErrShipCorrupt
			}
			val, ok := take(vl)
			if !ok {
				return rec, ErrShipCorrupt
			}
			rec.rows = append(rec.rows, KV{Key: key, Value: val})
		}
	case opPut:
		kl, ok := readLen()
		if !ok {
			return rec, ErrShipCorrupt
		}
		if rec.key, ok = take(kl); !ok {
			return rec, ErrShipCorrupt
		}
		vl, ok := readLen()
		if !ok {
			return rec, ErrShipCorrupt
		}
		if rec.value, ok = take(vl); !ok {
			return rec, ErrShipCorrupt
		}
	case opDelete:
		kl, ok := readLen()
		if !ok {
			return rec, ErrShipCorrupt
		}
		if rec.key, ok = take(kl); !ok {
			return rec, ErrShipCorrupt
		}
	default:
		return rec, ErrShipCorrupt
	}
	if p != len(b) {
		return rec, ErrShipCorrupt
	}
	return rec, nil
}

// appendBatchPayload encodes the op=3 group-commit record body onto dst —
// shared by the WAL writer and the shipping path so followers replay the
// exact record format durability uses.
func appendBatchPayload(dst []byte, table string, rows []KV) []byte {
	dst = append(dst, opBatch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(table)))
	dst = append(dst, table...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for i := range rows {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows[i].Key)))
		dst = append(dst, rows[i].Key...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows[i].Value)))
		dst = append(dst, rows[i].Value...)
	}
	return dst
}

// shipLocked commits one mutation to the group: assigns the next sequence,
// frames the payload, retains it on the tail, and applies it to every live
// follower before the write is acknowledged. Caller holds g.mu (and made the
// leader-local mutation under the same critical section, so leader apply and
// ship order agree across writers).
func (g *replGroup) shipLocked(op byte, key, value []byte, rows []KV) {
	var payload []byte
	if op == opBatch {
		payload = appendBatchPayload(nil, "", rows)
	} else {
		payload = encodeWALPayload(op, "", key, value)
	}
	g.seq++
	now := time.Now().UnixNano()
	g.lastCommitNanos = now
	frame := encodeShipFrame(g.epoch, g.seq, payload)
	g.tail = append(g.tail, shipEntry{seq: g.seq, commitNanos: now, frame: frame})
	if len(g.tail) > g.tailMax {
		// Copy down so dropped frames are actually released.
		keep := g.tail[len(g.tail)-g.tailMax:]
		g.tail = append(g.tail[:0:0], keep...)
	}
	g.store.stats.ShipFrames.Add(1)
	for _, f := range g.followers {
		if f.down {
			continue
		}
		if err := f.applyFrame(frame, now); err != nil {
			// A live follower rejecting a fresh frame means its state
			// diverged (test-injected corruption, demoted stale copy):
			// take it out of rotation until catch-up.
			f.down = true
			g.store.stats.ShipRejects.Add(1)
		}
	}
}

// applyFrame validates and applies one shipped frame. Caller holds the group
// mutex (or owns the follower exclusively, as the torn-stream tests do).
// Duplicate delivery is idempotent; stale epochs and gaps are rejected.
func (f *follower) applyFrame(frame []byte, commitNanos int64) error {
	epoch, seq, rec, err := decodeShipFrame(frame)
	if err != nil {
		return err
	}
	if epoch < f.epoch {
		return ErrShipStaleEpoch
	}
	if epoch == f.epoch && seq <= f.seq {
		return nil // duplicate delivery: already applied
	}
	if epoch == f.epoch && seq != f.seq+1 {
		return ErrShipGap
	}
	switch rec.op {
	case opPut:
		f.reg.put(rec.key, rec.value, nil)
	case opDelete:
		f.reg.delete(rec.key, nil)
	case opBatch:
		f.reg.putBatch(rec.rows, nil)
	}
	f.epoch = epoch
	f.seq = seq
	f.appliedCommitNanos = commitNanos
	return nil
}

// lagMS is the follower's staleness in milliseconds at wall-clock time
// nowNanos: zero when fully caught up, otherwise the age of its last applied
// commit. Caller holds the group mutex.
func (g *replGroup) lagMS(f *follower, nowNanos int64) int64 {
	if f.seq >= g.seq {
		return 0
	}
	lag := (nowNanos - f.appliedCommitNanos) / int64(time.Millisecond)
	if lag < 0 {
		lag = 0
	}
	return lag
}

// pickFollower chooses a follower able to serve a read under the staleness
// bound and returns its region and node, or a nil region to keep the read
// on the leader. Selection prefers the fastest serving node (slow-node
// multipliers route reads away from slow replicas) and rotates among ties
// so read traffic spreads with replica count. Both results are read under
// the group lock: a failover rewrites follower.node under it.
func (g *replGroup) pickFollower(maxStalenessMS int64) (*region, int) {
	if maxStalenessMS < 0 {
		return nil, 0
	}
	now := time.Now().UnixNano()
	g.lock()
	defer g.unlock()
	var cands []*follower
	bestScale := 0.0
	for _, f := range g.followers {
		if f.down || !g.store.nodeAlive(f.node) {
			continue
		}
		if g.lagMS(f, now) > maxStalenessMS {
			continue
		}
		scale := g.store.injector.latencyScale(f.node)
		if cands == nil || scale < bestScale {
			cands = cands[:0]
			bestScale = scale
		}
		if scale == bestScale {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return nil, 0
	}
	g.rr++
	f := cands[g.rr%len(cands)]
	return f.reg, f.node
}

// catchUpLocked brings one follower back in sync: a tail replay when its
// last applied frame still falls inside the retained tail, otherwise a full
// snapshot rebuild from the leader's live rows. Caller holds g.mu.
func (g *replGroup) catchUpLocked(f *follower) {
	if f.stale {
		g.snapshotCatchUpLocked(f)
		return
	}
	if f.seq >= g.seq && f.epoch == g.epoch {
		return
	}
	if f.epoch == g.epoch && len(g.tail) > 0 && f.seq+1 >= g.tail[0].seq {
		job := g.store.jobs.Begin("catchup", g.leader.tname, g.leader.id)
		for _, e := range g.tail {
			if e.seq <= f.seq {
				continue
			}
			if err := f.applyFrame(e.frame, e.commitNanos); err != nil {
				g.store.jobs.End(job)
				g.snapshotCatchUpLocked(f)
				return
			}
			job.AddBytesRead(int64(len(e.frame)))
			job.AddItems(1)
		}
		g.store.stats.CatchupTail.Add(1)
		g.store.jobs.End(job)
		return
	}
	g.snapshotCatchUpLocked(f)
}

// snapshotCatchUpLocked rebuilds a follower from the leader's current live
// rows as one sorted run — the bulk gear of catch-up, used when the tail no
// longer reaches back far enough (or after a demotion, when the follower's
// own state cannot be trusted). Caller holds g.mu.
func (g *replGroup) snapshotCatchUpLocked(f *follower) {
	job := g.store.jobs.Begin("catchup", g.leader.tname, g.leader.id)
	defer g.store.jobs.End(job)
	rows, _, _ := g.leader.scan(nil, nil, nil, 0, nil, nil, nil)
	entries := make([]entry, len(rows))
	rawBytes := 0
	for i, kv := range rows {
		entries[i] = entry{key: kv.Key, value: kv.Value}
		rawBytes += len(kv.Key) + len(kv.Value)
	}
	job.AddBytesRead(int64(rawBytes))
	job.AddItems(int64(len(entries)))
	fr := f.reg
	fr.flushMu.Lock()
	fr.mu.Lock()
	var runs []*blockRun
	if len(entries) > 0 {
		// The snapshot crosses the wire as the encoded run — compressed
		// blocks plus index and filter — not as decoded rows;
		// CatchupShipBytes records the transferred volume.
		run := newRunFromEntries(fr.bcfg, entries)
		runs = []*blockRun{run}
		g.store.stats.CatchupShipBytes.Add(int64(run.residentBytes()))
		job.AddBytesWritten(int64(run.residentBytes()))
	}
	fr.install("catchup", runs, true, func() {
		fr.mem = newSkiplist(nextSkiplistSeed())
		fr.imm = nil
	}, nil)
	fr.writeBytes.Store(entriesCharge(entries))
	fr.mu.Unlock()
	fr.flushMu.Unlock()
	f.epoch = g.epoch
	f.seq = g.seq
	f.appliedCommitNanos = g.lastCommitNanos
	f.stale = false
	g.store.stats.CatchupSnapshots.Add(1)
}

// failoverLocked promotes the best live follower after the leader's node
// died: highest applied sequence wins, lowest node id breaks ties, so every
// replica of the cluster makes the same choice. The promotion swaps LSM
// state between the leader region object and the follower's region, keeping
// table routing untouched, bumps the epoch to fence the stale copy, and
// leaves the demoted copy as a down follower for later catch-up. Returns
// false when no live follower exists (the region stays down until revival).
// Caller holds g.mu.
func (g *replGroup) failoverLocked() bool {
	var best *follower
	for _, f := range g.followers {
		if f.down || !g.store.nodeAlive(f.node) {
			continue
		}
		if best == nil || f.seq > best.seq || (f.seq == best.seq && f.node < best.node) {
			best = f
		}
	}
	if best == nil {
		return false
	}
	r, fr := g.leader, best.reg
	job := g.store.jobs.Begin("failover", r.tname, r.id)
	defer g.store.jobs.End(job)
	r.flushMu.Lock()
	r.mu.Lock()
	fr.flushMu.Lock()
	fr.mu.Lock()
	if r.per != nil {
		// The promoted copy's memtables hold rows no surviving log segment
		// need cover (the demoted leader's memtables pinned the log, and its
		// run files are about to go): fold them into runs, so that what the
		// manifest names after the promotion is the whole committed state.
		fr.foldMemtablesLocked()
	}
	oldNode := int(r.node.Swap(int64(best.node)))
	fr.node.Store(int64(oldNode))
	demoted := r.runs
	r.install("failover", fr.runs, true, func() {
		r.mem, fr.mem = fr.mem, r.mem
		r.imm, fr.imm = fr.imm, r.imm
		fr.runs = demoted
	}, nil)
	// The demoted copy's rows are all in the promoted one's files (every
	// acknowledged write was shipped before it was acknowledged).
	fr.mem.unpin()
	for _, m := range fr.imm {
		m.unpin()
	}
	if r.per != nil {
		r.per.dropCovered()
	}
	rwb, fwb := r.writeBytes.Load(), fr.writeBytes.Load()
	r.writeBytes.Store(fwb)
	fr.writeBytes.Store(rwb)
	fr.mu.Unlock()
	fr.flushMu.Unlock()
	r.mu.Unlock()
	r.flushMu.Unlock()
	// The promoted copy may trail the acked sequence only if every fresher
	// follower was also down — impossible while one follower stays live, the
	// invariant the chaos suite leans on. Adopt its sequence as the group's:
	// frames above it exist on no live replica.
	g.seq = best.seq
	g.epoch++
	// Retained frames carry the old epoch and may outrun the adopted
	// sequence; drop them so catch-up never replays fenced history.
	g.tail = nil
	best.node = oldNode
	best.seq = 0
	best.epoch = g.epoch
	best.down = true // demoted copy on the dead node
	best.stale = true
	// The swapped-in state may carry sealed memtables; let the background
	// flusher pick both regions up.
	if r.fl != nil {
		r.fl.enqueue(r)
	}
	if fr.fl != nil {
		fr.fl.enqueue(fr)
	}
	g.store.stats.Failovers.Add(1)
	return true
}

// foldMemtablesLocked turns the region's sealed and live memtables into runs
// on top of its stack, uncounted and in memory only (a follower has no
// files). Caller holds flushMu and mu.
func (r *region) foldMemtablesLocked() {
	for _, m := range append(r.imm, r.mem) {
		if m.size > 0 {
			r.runs = withRun(r.runs, newRunFromEntries(r.bcfg, m.drain()))
		}
	}
	r.imm = nil
	r.mem = newSkiplist(nextSkiplistSeed())
}

// replicaHealth is one group's health summary for ReplicaStats.
func (g *replGroup) health(nowNanos int64) (followers, down int, maxLagMS int64) {
	g.lock()
	defer g.unlock()
	for _, f := range g.followers {
		followers++
		if f.down {
			down++
			continue
		}
		if lag := g.lagMS(f, nowNanos); lag > maxLagMS {
			maxLagMS = lag
		}
	}
	return
}

// initReplication attaches a replication group to a freshly created leader
// region, placing followers on the next nodes round the ring and seeding
// them from the leader's current runs (split children hand their half to
// followers this way). No-op unless Options.Replicas > 1.
func (s *Store) initReplication(r *region) {
	rf := s.opts.Replicas
	if rf <= 1 {
		return
	}
	g := &replGroup{store: s, leader: r, tailMax: s.opts.ReplicaTailFrames}
	leaderNode := int(r.node.Load())
	r.mu.RLock()
	seedRuns := append([]*blockRun(nil), r.runs...)
	seedBytes := r.writeBytes.Load()
	bcfg := r.bcfg // followers build runs exactly like their leader
	r.mu.RUnlock()
	now := time.Now().UnixNano()
	for i := 1; i < rf; i++ {
		node := (leaderNode + i) % s.opts.Nodes
		fr := newRegion(s.nextRegionID(), r.startKey, r.endKey, node, r.flushBytes, r.maxRuns, r.cpol, s.fl, bcfg)
		fr.tname, fr.jobs = r.tname, r.jobs
		fr.runs = append([]*blockRun(nil), seedRuns...)
		fr.writeBytes.Store(seedBytes)
		g.followers = append(g.followers, &follower{
			reg:                fr,
			node:               node,
			appliedCommitNanos: now,
			down:               !s.nodeAlive(node),
		})
	}
	r.rep = g
	// A region can be born onto a dead node (a split while the rotation's
	// next node is down, or a leader killed between newRegion and here):
	// promote a live follower immediately so the region never starts dark.
	if !s.nodeAlive(leaderNode) {
		g.lock()
		g.failoverLocked()
		g.unlock()
	}
}

// KillNode marks a simulated node dead: client RPCs against regions it
// serves fail with ErrNodeDead, its followers stop receiving frames, and
// every replication group led there immediately promotes a live follower
// (deterministically) with an epoch bump. Regions without replicas stay
// routed to the dead node and keep failing until ReviveNode.
func (s *Store) KillNode(node int) {
	s.nodeMu.Lock()
	if s.deadNodes == nil {
		s.deadNodes = make(map[int]bool)
	}
	s.deadNodes[node] = true
	s.anyDead.Store(true)
	s.nodeMu.Unlock()
	for _, t := range s.tablesSnapshot() {
		for _, r := range t.regionSnapshot() {
			g := r.rep
			if g == nil {
				continue
			}
			g.lock()
			for _, f := range g.followers {
				if f.node == node {
					f.down = true
				}
			}
			if int(r.node.Load()) == node {
				g.failoverLocked()
			}
			g.unlock()
		}
	}
}

// ReviveNode brings a killed node back: RPCs succeed again and every down
// follower hosted there is caught up (tail replay or snapshot) and rejoins
// its group. A revived stale leader comes back as a follower — its group
// moved on under a higher epoch — so its unshipped writes are discarded by
// the snapshot rebuild, exactly the fencing guarantee.
func (s *Store) ReviveNode(node int) {
	s.nodeMu.Lock()
	if s.deadNodes != nil {
		delete(s.deadNodes, node)
		if len(s.deadNodes) == 0 {
			s.anyDead.Store(false)
		}
	}
	s.nodeMu.Unlock()
	for _, t := range s.tablesSnapshot() {
		for _, r := range t.regionSnapshot() {
			g := r.rep
			if g == nil {
				continue
			}
			g.lock()
			for _, f := range g.followers {
				if f.node == node && f.down {
					g.catchUpLocked(f)
					f.down = false
				}
			}
			g.unlock()
		}
	}
}

// nodeAlive reports whether a simulated node is serving. The fast path is a
// single atomic load so the per-RPC cost is nil until the first KillNode.
func (s *Store) nodeAlive(node int) bool {
	if !s.anyDead.Load() {
		return true
	}
	s.nodeMu.RLock()
	dead := s.deadNodes[node]
	s.nodeMu.RUnlock()
	return !dead
}

// ReplicaStats summarizes replication health across every group.
type ReplicaStats struct {
	// Groups is the number of replicated regions (leaders with followers).
	Groups int
	// Followers and Down count replicas across all groups.
	Followers int
	Down      int
	// MaxLagMS is the worst live-follower staleness observed at call time.
	MaxLagMS int64
}

// ReplicaStats scans every replication group for the health gauges exported
// through /metrics and /stats.
func (s *Store) ReplicaStats() ReplicaStats {
	var rs ReplicaStats
	now := time.Now().UnixNano()
	for _, t := range s.tablesSnapshot() {
		for _, r := range t.regionSnapshot() {
			g := r.rep
			if g == nil {
				continue
			}
			rs.Groups++
			followers, down, lag := g.health(now)
			rs.Followers += followers
			rs.Down += down
			if lag > rs.MaxLagMS {
				rs.MaxLagMS = lag
			}
		}
	}
	return rs
}

// Replicas returns the configured copies per region (1 = unreplicated).
func (s *Store) Replicas() int {
	if s.opts.Replicas < 1 {
		return 1
	}
	return s.opts.Replicas
}

// tablesSnapshot copies the table list out from under the store lock.
func (s *Store) tablesSnapshot() []*Table {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	return tables
}

// regionSnapshot copies the region list out from under the table lock.
func (t *Table) regionSnapshot() []*region {
	t.mu.RLock()
	regs := append([]*region(nil), t.regions...)
	t.mu.RUnlock()
	return regs
}
