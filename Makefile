GO ?= go

.PHONY: all vet build test race check bench bench-write bench-query \
	bench-overhead bench-serving lint-logs obs-check test-recovery

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The fault-injection and scan paths are heavily concurrent; run them under
# the race detector.
race:
	$(GO) test -race ./internal/kvstore ./internal/engine

# Crash recovery and the files it trusts, under the race detector: a kill at
# every boundary between two dependent file operations (store level, two
# geometries) and inside a re-encode pass (engine level), writers racing
# segment rotation and forced seals, the model oracle on a durable cluster
# killed after every step, and the hostile-bytes suites of the run-file and
# manifest formats — then RECOVERY_FUZZTIME of each of their fuzz targets.
RECOVERY_FUZZTIME ?= 30s
test-recovery:
	$(GO) test -race ./internal/kvstore/ \
		-run 'TestCrash|TestRecovery|TestKillRacing|TestSyncedState|TestInFlightWriter|TestPersistenceError|TestDropTableSurvives|TestFailoverOnDurable|TestCheckpoint|TestDurable|TestLegacy|TestLogOnly|TestTornWAL|TestCorruptWAL|TestWAL|TestRunFile|TestManifest|TestOpenDir'
	$(GO) test -race ./internal/engine/ -run 'TestDurable|TestReopen|TestReencodeSurvives|TestRecoverState'
	$(GO) test -race ./internal/chaos/ -run 'TestModelOracle/durable'
	$(GO) test -run='^$$' -fuzz 'FuzzDecodeRunFile' -fuzztime $(RECOVERY_FUZZTIME) ./internal/kvstore/
	$(GO) test -run='^$$' -fuzz 'FuzzReplayManifest' -fuzztime $(RECOVERY_FUZZTIME) ./internal/kvstore/

# Library code must log through log/slog (or stay silent) — bare fmt.Print*
# writes to stdout bypass the structured request log and pollute exposition
# pipes. Test files are exempt.
lint-logs:
	@if grep -rn --include='*.go' --exclude='*_test.go' 'fmt\.Print' internal/; then \
		echo 'lint-logs: use log/slog (or return errors) instead of fmt.Print* in internal/' >&2; \
		exit 1; \
	fi
	@echo 'lint-logs: OK'

check: vet build lint-logs test race

# Boot tmand, scrape /metrics, and validate the Prometheus exposition
# (parseability, TYPE declarations, histogram consistency, minimum series
# count). obscheck retries while the server comes up, so no sleeps.
OBS_ADDR ?= 127.0.0.1:18080
OBS_REQUIRED = tman_wal_segments,tman_wal_tail_bytes,tman_run_files,tman_run_file_bytes,tman_resident_run_bytes,tman_runs_per_region_max,tman_recover_seconds,tman_persist_errors_total,tman_bg_jobs_total,tman_bg_bytes_read_total,tman_bg_bytes_written_total,tman_bg_seconds_total,tman_bg_stall_seconds_total,tman_bg_jobs_running,tman_slo_good_total,tman_slo_late_total,tman_slo_shed_total,tman_slo_objective_seconds,tman_slo_burn_rate_1m,tman_slo_burn_rate_5m,tman_scan_queue_depth,tman_region_hottest_rows,tman_region_hotness_share
obs-check:
	$(GO) build -o /tmp/tmand-obscheck ./cmd/tmand
	$(GO) build -o /tmp/obscheck ./cmd/obscheck
	@/tmp/tmand-obscheck -addr $(OBS_ADDR) -log-level warn -trace-sample 1 & pid=$$!; \
	/tmp/obscheck -url http://$(OBS_ADDR)/metrics -min-series 250 \
		-require $(OBS_REQUIRED); rc=$$?; \
	kill $$pid 2>/dev/null; exit $$rc

# Read-path benchmarks (region scan, block-run merge, scan executor, hot SRQ).
# Human-readable output goes to stderr; machine-readable results land in
# BENCH_readpath.json for archival and regression diffing.
bench:
	$(GO) test -run= -bench 'BenchmarkRegionScan|BenchmarkScanRangesManyRegions|BenchmarkBlock' \
		-benchmem -benchtime=2s ./internal/kvstore/ > /tmp/bench_kvstore.txt
	$(GO) test -run= -bench 'BenchmarkSRQHot' -benchmem -benchtime=2s ./internal/engine/ > /tmp/bench_engine.txt
	$(GO) run ./cmd/benchjson -suite readpath -o BENCH_readpath.json \
		/tmp/bench_kvstore.txt /tmp/bench_engine.txt

# Write-path benchmarks (per-region MultiPut vs sequential Put, WAL group
# commit, engine BatchPut vs Put loop, sustained-ingest write amplification
# of the tiered compaction policy). Each benchmark runs WRITE_BENCHCOUNT
# times and benchjson archives the fastest (min-of-N, same noise rationale
# as bench-query). Results land in BENCH_writepath.json.
WRITE_BENCHCOUNT ?= 3
bench-write:
	$(GO) test -run= -bench 'BenchmarkWrite(Sequential|Batched)' -count=$(WRITE_BENCHCOUNT) \
		-benchmem -benchtime=2s ./internal/kvstore/ > /tmp/bench_write_kvstore.txt
	$(GO) test -run= -bench 'BenchmarkSustainedIngest' -count=$(WRITE_BENCHCOUNT) \
		-benchmem -benchtime=1x ./internal/kvstore/ > /tmp/bench_write_sustained.txt
	$(GO) test -run= -bench 'BenchmarkEngineIngest' -count=$(WRITE_BENCHCOUNT) \
		-benchmem -benchtime=20x ./internal/engine/ > /tmp/bench_write_engine.txt
	$(GO) run ./cmd/benchjson -suite writepath -o BENCH_writepath.json \
		/tmp/bench_write_kvstore.txt /tmp/bench_write_sustained.txt /tmp/bench_write_engine.txt

# Query-path throughput benchmarks: the mixed workload driven by 1/4/8
# concurrent clients against the serving path (sharded LFU + singleflight +
# plan cache). QUERY_BENCHTIME=1x gives CI a smoke run; the default measures
# for real.
# Each benchmark runs QUERY_BENCHCOUNT times and benchjson archives the
# fastest — single samples swing ±20% on shared single-core hosts, far past
# any useful regression budget, while min-of-N rejects the (one-sided)
# CPU-steal noise.
QUERY_BENCHTIME ?= 2000x
QUERY_BENCHCOUNT ?= 3
bench-query:
	$(GO) test -run= -bench 'BenchmarkQueryPath' -count=$(QUERY_BENCHCOUNT) \
		-benchmem -benchtime=$(QUERY_BENCHTIME) ./internal/engine/ > /tmp/bench_querypath.txt
	$(GO) run ./cmd/benchjson -suite querypath -o BENCH_querypath.json \
		/tmp/bench_querypath.txt

# Instrumentation overhead assertion: rerun the concurrent query-path
# benchmark (metrics on, trace sampling off — the production default) and
# compare ns/op against the archived pre-instrumentation baseline in
# BENCH_querypath.json. Fails when any benchmark regresses more than
# OVERHEAD_BUDGET percent.
OVERHEAD_BUDGET ?= 2
bench-overhead:
	$(GO) test -run= -bench 'BenchmarkQueryPathConcurrent' -count=$(QUERY_BENCHCOUNT) \
		-benchmem -benchtime=$(QUERY_BENCHTIME) ./internal/engine/ > /tmp/bench_overhead.txt
	$(GO) run ./cmd/benchjson -baseline BENCH_querypath.json -suite querypath \
		-max-regress $(OVERHEAD_BUDGET) /tmp/bench_overhead.txt

# Serving benchmark: boot tmand with admission control and SLO tracking on,
# drive it with the open-loop Poisson harness (coordinated-omission-safe
# percentiles + goodput), archive BENCH_serving.json. SERVING_GATE=enforce
# makes the SLO verdict the exit status; the default reports only.
SERVING_ADDR ?= 127.0.0.1:18090
SERVING_RATE ?= 150
SERVING_DURATION ?= 30s
SERVING_GATE ?= report
bench-serving:
	$(GO) build -o /tmp/tmand-serving ./cmd/tmand
	$(GO) build -o /tmp/tman-loadgen ./cmd/tman-loadgen
	@/tmp/tmand-serving -addr $(SERVING_ADDR) -boundary 70,0,140,55 -log-level warn \
		-slo-p99-ms 250 -max-inflight 256 & pid=$$!; \
	sleep 1; \
	/tmp/tman-loadgen -addr http://$(SERVING_ADDR) -rate $(SERVING_RATE) \
		-duration $(SERVING_DURATION) -deadline-ms 250 -gate $(SERVING_GATE) \
		-o BENCH_serving.json; rc=$$?; \
	kill $$pid 2>/dev/null; exit $$rc
