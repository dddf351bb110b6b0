package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies returns the sorted latencies (ms) of the samples that were
// answered, optionally of one kind only (kind < 0 = all).
func latencies(samples []sample, kind opKind) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.status != 0 && (kind < 0 || s.kind == kind) {
			out = append(out, s.latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

// typicalLatencyMS is the p50_ms metric: the median latency of each op type,
// averaged with the type's share of the ops as weight. On a one-type
// workload it is the plain median. On a mix the plain median is a poor
// statistic — the op types form well separated latency clusters (an object
// query takes 0.3 ms, a similarity query 50 ms) and the 50 % mark of the
// mixture falls on the border between two of them, so it jumps from one
// cluster to the next when a few samples move; ten runs of serve-mix gave it
// a spread of 0.19–0.27 against 0.12–0.16 for this figure.
func typicalLatencyMS(samples []sample) float64 {
	total, sum := 0, 0.0
	for k := opKind(0); k < numKinds; k++ {
		if lat := latencies(samples, k); len(lat) > 0 {
			total += len(lat)
			sum += float64(len(lat)) * percentile(lat, 0.50)
		}
	}
	return ratio(sum, float64(total))
}

// endToEnd computes the end-to-end metrics of a timed run — what a client
// of tmand sees, all wall time, tracing off.
func (r *timedRun) endToEnd() metricSet {
	m := metricSet{}
	window := r.load.elapsed.Seconds()
	var ok, good, trajs float64
	for _, s := range r.load.samples {
		if !s.ok {
			continue
		}
		ok++
		trajs += float64(s.results)
		if s.latencyMS() <= latencyLimitMS {
			good++
		}
	}
	// A decoded answer the oracle rejected was counted ok by its sender.
	good = math.Max(0, good-float64(r.wrong))

	m.put("setup_s", "s", median(r.setupS))
	m.put("ops_per_s", "1/s", ratio(ok, window))
	m.put("traj_per_s", "1/s", ratio(trajs, window))
	m.put("p50_ms", "ms", typicalLatencyMS(r.load.samples))
	m.put("goodput_frac", "ratio", ratio(good, float64(r.due)))
	m.put("cpu_ms_per_op", "ms", ratio(r.cpuS*1000, ok))
	m.put("rss_peak_mb", "MiB", r.rssMiB)
	m.put("space_amp", "ratio", ratio(float64(r.walBytes), float64(r.userB)))
	m.put("recover_s", "s", r.recoverS)
	return m
}

// attempted and failed are the whole-run op counts of the result line:
// every op of the window plus every durability point check; failed adds
// wrong answers and acknowledged trajectories lost across the restart.
func (r *timedRun) attempted() int { return r.due + r.pointOps }

func (r *timedRun) failed() int {
	n := r.wrong + r.ackedLost
	for _, s := range r.load.samples {
		if !s.ok {
			n++
		}
	}
	return n + (r.due - len(r.load.samples)) // due but never sent
}
