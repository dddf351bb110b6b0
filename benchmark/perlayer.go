package main

import (
	"fmt"
	"sort"
)

// perLayer assembles the per-layer metrics of one workload from the timed
// run made with e.trace set (counter diffs of /stats and /metrics around
// the window, /proc, the 1 Hz gauge samples) and the in-process traced pass.
// Every metric is emitted on every workload; a layer the workload does not
// exercise reports 0.
func perLayer(r *timedRun, on *tracedPass) metricSet {
	m := metricSet{}
	d := r.before.diff(r.after)
	samples := r.load.samples
	var ok, results, reqB, respB float64
	for _, s := range samples {
		if s.ok {
			ok++
			results += float64(s.results)
		}
		reqB += float64(s.reqBytes)
		respB += float64(s.respBytes)
	}
	n := float64(len(samples))
	lt := on.layerTimes()

	// tmand: process + transport.
	lat := latencies(samples, -1)
	q, _ := supportedTail(len(lat), 10)
	m.put("tmand.p99_ms", "ms", percentile(lat, 0.99))
	m.put("tmand.tail_ms", "ms", percentile(lat, q))
	m.put("tmand.tail_pct", "%", q*100)
	m.put("tmand.samples", "count", float64(len(lat)))
	m.put("tmand.max_stall_ms", "ms", maxStallMS(samples))
	shed := 0.0
	for k, v := range d {
		if len(k) > 19 && k[:19] == "tman_slo_shed_total" {
			shed += v
		}
	}
	m.put("tmand.shed", "count", shed)
	transport, total := 0.0, 0
	for k := opKind(0); k < numKinds; k++ {
		kl := latencies(samples, k)
		m.put("tmand.lat."+kindNames[k]+".p50_ms", "ms", percentile(kl, 0.50))
		if h := on.med(rungNames[rungHTTP], k); len(kl) > 0 && h > 0 {
			transport += float64(len(kl)) * (percentile(kl, 0.50) - h/1e6)
			total += len(kl)
		}
	}
	m.put("tmand.transport_ms", "ms", ratio(transport, float64(total)))
	m.put("tmand.acked_lost", "count", float64(r.ackedLost))
	m.put("tmand.transient_misses", "count", float64(r.transientMisses))
	m.put("tmand.fail_frac", "ratio", ratio(float64(r.failed()), float64(r.attempted())))

	// loadgen: the validity guard.
	m.put("loadgen.sched_lag_p99_ms", "ms", r.lagP99MS())
	m.put("loadgen.cpu_frac", "ratio", ratio(r.genCPUS, r.load.elapsed.Seconds()))

	// httpapi.
	m.put("httpapi.busy_ms_p50", "ms", lt.httpBusy/1e6)
	m.put("httpapi.self_ms_p50", "ms", lt.httpSelf/1e6)
	m.put("httpapi.allocs_per_op", "count", ratio(on.httpAllocs, on.httpOps))
	m.put("httpapi.resp_bytes_per_op", "B", ratio(respB, n))
	m.put("httpapi.req_bytes_per_op", "B", ratio(reqB, n))

	// engine.
	var windows, winOps float64
	for k := range on.windows {
		for _, w := range on.windows[k] {
			windows += w
			winOps++
		}
	}
	m.put("engine.busy_ms_p50", "ms", lt.engineBusy/1e6)
	m.put("engine.self_ms_p50", "ms", lt.engineSelf/1e6)
	m.put("engine.allocs_per_op", "count", ratio(on.engAllocs, on.allocOps))
	m.put("engine.alloc_kb_per_op", "KiB", ratio(on.engBytes/1024, on.allocOps))
	m.put("engine.candidates_per_result", "ratio", ratio(d["rows_scanned"], results))
	m.put("engine.windows_per_op", "count", ratio(windows, winOps))
	m.put("engine.plan_hit_rate", "ratio", ratio(d["plan_hits"], d["plan_hits"]+d["plan_misses"]))
	m.put("engine.reencodes", "count", d["reencodes"])
	m.put("engine.sim_io_ms_per_op", "ms", ratio(d["tman_store_sim_io_seconds_total"]*1000, ok))

	// index.
	m.put("index.plan_ms_p50", "ms", lt.indexPlan/1e6)
	m.put("index.ranges_per_op", "count", ratio(windows, winOps)/4) // windows = ranges × 4 shards
	m.put("index.candidate_values_per_op", "count", ratio(on.planValues, on.planOps))
	m.put("index.encode_us_per_traj", "us", ratio(on.encodeNS/1e3, on.encodedTrajs))

	// cache.
	m.put("cache.block_hit_rate", "ratio", ratio(d["block_cache_hits"], d["block_cache_hits"]+d["block_cache_misses"]))
	m.put("cache.block_evictions", "count", d["block_cache_evictions"])
	m.put("cache.block_used_mb", "MiB", r.after["block_cache_used_bytes"]/(1<<20))
	m.put("cache.index_hit_rate", "ratio", ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"]))
	m.put("cache.index_dir_loads", "count", d["dir_loads"])

	// kvstore, read side.
	blocks := d["fence_blocks_skipped"] + d["block_cache_hits"] + d["block_cache_misses"]
	m.put("kvstore.scan_us_per_krow", "us", ratio(on.scanNS/1e3, on.scanRows/1e3))
	m.put("kvstore.get_us_p50", "us", on.medAll(spanGet)/1e3)
	m.put("kvstore.rows_scanned_per_op", "count", ratio(d["rows_scanned"], ok))
	m.put("kvstore.returned_per_scanned", "ratio", ratio(d["rows_returned"], d["rows_scanned"]))
	m.put("kvstore.block_read_kb_per_op", "KiB", ratio(d["block_read_bytes"]/1024, ok))
	m.put("kvstore.blocks_skipped_frac", "ratio", ratio(d["fence_blocks_skipped"], blocks))
	m.put("kvstore.bloom_fp_rate", "ratio", ratio(d["bloom_false_positives"], d["bloom_checks"]))
	m.put("kvstore.rpcs_per_op", "count", ratio(d["rpcs"], ok))
	m.put("kvstore.retried_rpcs", "count", d["retried_rpcs"])
	m.put("kvstore.failed_regions", "count", d["failed_regions"])
	m.put("kvstore.runs_per_region_mean", "count", on.runsPerRegion)

	// kvstore, write side and background work.
	var scanQ, compactQ float64
	for _, s := range r.seconds {
		scanQ, compactQ = max(scanQ, s.scanQueue), max(compactQ, s.compactQ)
	}
	var windowUserB float64
	for _, s := range samples {
		if s.ok && s.kind == opIngest {
			windowUserB += float64(s.op.tmpl.userBytes)
		}
	}
	mid, last := r.writeAmpThirds()
	var bgBusy, bgWritten float64
	for _, kind := range []string{"flush", "compact", "split"} {
		bgBusy += d[`tman_bg_seconds_total{kind="`+kind+`"}`]
		bgWritten += d[`tman_bg_bytes_written_total{kind="`+kind+`"}`]
	}
	m.put("kvstore.scan_queue_depth_max", "count", scanQ)
	m.put("kvstore.write_amp", "ratio", ratio(d["bytes_flushed"]+d["bytes_compacted"], windowUserB))
	m.put("kvstore.write_amp_mid_third", "ratio", mid)
	m.put("kvstore.write_amp_last_third", "ratio", last)
	m.put("kvstore.flushes", "count", d["flushes"])
	m.put("kvstore.compactions", "count", d["compactions"])
	m.put("kvstore.bg_busy_s", "s", bgBusy)
	m.put("kvstore.bg_mb_written", "MiB", bgWritten/(1<<20))
	m.put("kvstore.compact_stall_ms", "ms", d["compact_stall_ns"]/1e6)
	m.put("kvstore.compact_queue_depth_max", "count", compactQ)
	m.put("kvstore.region_splits", "count", d["region_splits"])
	m.put("kvstore.wal_appends", "count", d["tman_store_wal_appends_total"])
	m.put("kvstore.wal_syncs", "count", d["tman_store_wal_syncs_total"])
	m.put("kvstore.put_us_per_row", "us", ratio(on.putNS/1e3, on.putRows))
	m.put("kvstore.resident_run_mb", "MiB", on.residentMB)

	// compress and similarity unit costs.
	m.put("compress.decode_ns_per_point", "ns", ratio(on.decodeNS, on.decodedPts))
	m.put("compress.encode_ns_per_point", "ns", ratio(on.encodePtsNS, on.encodedPts))
	m.put("compress.bytes_per_point", "B", ratio(on.encodedBytes, on.encodedPts))
	for i, name := range []string{"frechet", "dtw", "hausdorff"} {
		m.put("similarity."+name+"_us_per_pair", "us", ratio(on.simNS[i]/1e3, on.simPairs))
	}

	// The share table: each layer's share of the CPU samples of the profiled
	// leg, with the number of samples it rests on.
	for _, layer := range profileLayers {
		m.put("cpu_share."+layer, "ratio", on.cpuShare[layer])
	}
	m.put("bench.cpu_profile_samples", "count", float64(on.cpuSamples))
	// Spans are stored after the call they time has returned, so tracing
	// costs the pass exactly the time spent storing them.
	m.put("bench.trace_overhead_frac", "ratio", ratio(on.sinkNS, on.busyNS))
	return m
}

// medAll is the median duration (ns) of a span name over all op types.
func (p *tracedPass) medAll(name string) float64 {
	d := p.dur[name]
	if d == nil {
		return 0
	}
	var all []float64
	for k := range d {
		all = append(all, d[k]...)
	}
	return median(all)
}

// maxStallMS is the longest gap between two consecutive completions.
func maxStallMS(samples []sample) float64 {
	worst := int64(0)
	for i := 1; i < len(samples); i++ {
		if gap := samples[i].endNS - samples[i-1].endNS; gap > worst {
			worst = gap
		}
	}
	return float64(worst) / 1e6
}

// writeAmpThirds splits the window in three and returns the write
// amplification — bytes flushed plus compacted per user byte acknowledged —
// of the middle and the last third, from the 1 Hz samples. A window whose
// amplification has levelled off shows the two close together.
func (r *timedRun) writeAmpThirds() (mid, last float64) {
	if len(r.seconds) < 3 {
		return 0, 0
	}
	end := r.seconds[len(r.seconds)-1].atNS
	written := func(atNS int64) float64 { // counters at the last sample not after atNS
		i := sort.Search(len(r.seconds), func(i int) bool { return r.seconds[i].atNS > atNS }) - 1
		if i < 0 {
			return r.before["bytes_flushed"] + r.before["bytes_compacted"]
		}
		return r.seconds[i].flushedB + r.seconds[i].compactedB
	}
	user := func(lo, hi int64) float64 {
		var b float64
		for _, s := range r.load.samples {
			if s.ok && s.kind == opIngest && s.endNS > lo && s.endNS <= hi {
				b += float64(s.op.tmpl.userBytes)
			}
		}
		return b
	}
	amp := func(lo, hi int64) float64 { return ratio(written(hi)-written(lo), user(lo, hi)) }
	return amp(end/3, 2*end/3), amp(2*end/3, end)
}

// perLayerNames lists every per-layer metric this program emits, for the
// agreement test with BENCHMARK.json.
func perLayerNames() []string {
	empty := &tracedPass{dur: map[string]*[numKinds][]float64{}}
	r := &timedRun{load: &loadResult{}, before: counters{}, after: counters{}, in: &inputs{}}
	names := make([]string, 0, 128)
	for n := range perLayer(r, empty) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (m metricSet) String() string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return out
}
