// Command tmand serves a TMan database over HTTP/JSON.
//
//	tmand -addr :8080 -boundary 110,35,125,45
//
// See internal/httpapi for the endpoint reference. tmand is the single-node
// deployment shape of the system: the embedded KV store runs in this
// process. Without -data everything lives in memory and dies with it; with
// -data <dir> every write is logged before it is acknowledged, memtables
// are flushed into run files under dir, and a restart loads those files and
// replays only the log tail (see DESIGN.md §18). Observability:
//
//	GET /metrics               Prometheus text exposition
//	GET /trace?query=space&... run one traced query, return its span tree
//	GET /debug/jobs            running/recent background jobs + hottest regions
//	-log-level debug           structured request logging (log/slog)
//	-slow-query-ms 250         WARN-log requests slower than 250ms
//	-trace-sample 0.01         trace 1% of queries into the trace ring
//	-slo-p99-ms 250            latency objective behind the tman_slo_* series
//	-max-inflight 256          shed query/ingest load above this bound
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux (pprof listener only)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/httpapi"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		boundary    = flag.String("boundary", "110,35,125,45", "dataset boundary minx,miny,maxx,maxy")
		shards      = flag.Int("shards", 4, "hash shards")
		alpha       = flag.Int("alpha", 3, "TShape alpha")
		beta        = flag.Int("beta", 3, "TShape beta")
		g           = flag.Int("g", 16, "TShape max resolution")
		encoding    = flag.String("encoding", "greedy", "shape encoding: bitmap|greedy|genetic")
		dataDir     = flag.String("data", "", "durable data directory (empty = in-memory)")
		replicas    = flag.Int("replicas", 1, "copies of each region, leader included (1 = no replication)")
		drainWait   = flag.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
		pprofAddr   = flag.String("pprof-addr", "", "pprof listen address (e.g. localhost:6060; empty = disabled)")
		logLevel    = flag.String("log-level", "info", "log level: debug|info|warn|error")
		slowQueryMS = flag.Int("slow-query-ms", 0, "WARN-log requests slower than this many ms (0 = disabled)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of queries to trace into the trace ring (0..1)")
		blockSize   = flag.Int("block-size", 0, "encoded run block size in bytes (0 = 4096, min 512)")
		blockCache  = flag.Int("block-cache-mb", 0, "decoded block cache capacity in MiB (0 = 32, negative disables)")
		bloomBits   = flag.Int("bloom-bits", 0, "bloom filter bits per key (0 = 10, negative disables)")
		compactFan  = flag.Int("compact-fanin", 0, "same-tier runs merged per tiered compaction (0 = 4, min 2)")
		compactSub  = flag.Int("compact-subranges", 0, "key-range partitions per large merge (0 = 4, 1 disables)")
		sloP99MS    = flag.Int("slo-p99-ms", 0, "per-query latency objective in ms (0 = 250, negative disables SLO tracking)")
		sloBudget   = flag.Float64("slo-budget", 0, "allowed late fraction of the objective (0 = 0.01)")
		maxInflight = flag.Int("max-inflight", 0, "shed query/ingest load above this many in-flight requests (0 = unlimited)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "tmand: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	rect, err := parseBoundary(*boundary)
	if err != nil {
		fatal("bad boundary", "err", err)
	}
	enc := tman.EncodingGreedy
	switch *encoding {
	case "bitmap":
		enc = tman.EncodingBitmap
	case "greedy":
		enc = tman.EncodingGreedy
	case "genetic":
		enc = tman.EncodingGenetic
	default:
		fatal("unknown encoding", "encoding", *encoding)
	}

	opts := []tman.Option{
		tman.WithShards(*shards),
		tman.WithShapeGrid(*alpha, *beta, *g),
		tman.WithShapeEncoding(enc),
		tman.WithTraceSampling(*traceSample),
	}
	if *sloP99MS != 0 || *sloBudget != 0 {
		opts = append(opts, tman.WithSLO(*sloP99MS, *sloBudget))
	}
	if *blockSize != 0 || *blockCache != 0 || *bloomBits != 0 {
		cacheBytes := *blockCache
		if cacheBytes > 0 {
			cacheBytes <<= 20
		}
		opts = append(opts, tman.WithBlockTuning(*blockSize, *bloomBits, cacheBytes))
	}
	if *compactFan != 0 || *compactSub != 0 {
		opts = append(opts, tman.WithCompactionTuning(*compactFan, *compactSub))
	}
	if *dataDir != "" {
		opts = append(opts, tman.WithDataDir(*dataDir))
	}
	if *replicas > 1 {
		opts = append(opts, tman.WithReplication(*replicas))
	}
	db, err := tman.Open(rect, opts...)
	if err != nil {
		fatal("open failed", "err", err)
	}

	// The pprof endpoints live on their own listener so profiling is never
	// exposed on the serving address. The API server installs its own
	// Handler, which leaves DefaultServeMux free for net/http/pprof's
	// registrations.
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			psrv := &http.Server{Addr: *pprofAddr, ReadHeaderTimeout: 5 * time.Second}
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	api := httpapi.New(db,
		httpapi.WithLogger(logger),
		httpapi.WithSlowQueryThreshold(time.Duration(*slowQueryMS)*time.Millisecond),
		httpapi.WithMaxInflight(*maxInflight),
	)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "boundary", rect.String(),
			"grid", fmt.Sprintf("%dx%d", *alpha, *beta), "encoding", *encoding,
			"trace_sample", *traceSample)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "deadline", *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal("server failed", "err", err)
		}
	}
	if err := db.Close(); err != nil {
		fatal("close failed", "err", err)
	}
	logger.Info("shut down cleanly")
}

func parseBoundary(s string) (tman.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return tman.Rect{}, fmt.Errorf("boundary needs 4 comma-separated numbers, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return tman.Rect{}, fmt.Errorf("boundary component %q: %w", p, err)
		}
		vals[i] = v
	}
	r := tman.Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if !r.Valid() || r.Width() <= 0 || r.Height() <= 0 {
		return tman.Rect{}, fmt.Errorf("degenerate boundary %v", r)
	}
	return r, nil
}
