// Command adskip-server serves an adskip database over TCP using the
// internal/server query service. The dataset is either loaded from a
// table snapshot (-load; adskip-demo's \gen + \save writes one) or
// generated in-process (-rows/-dist/-seed: table "data" with v BIGINT,
// seq BIGINT, noise DOUBLE).
//
// Usage:
//
//	adskip-server -rows 1000000 -dist clustered -addr :7878 -telemetry 127.0.0.1:0
//	adskip-server -load data.adsk
//	adskip-server -rows 100000 -wal-dir /var/lib/adskip/wal
//
// With -wal-dir the server is durable: inserts are group-committed to a
// write-ahead log before they are acknowledged, and on startup the WAL
// is replayed (after the listener is up, so clients see retryable
// "recovering" refusals rather than connection errors). The base dataset
// is deterministic from its flags and is not logged — only ingest is.
//
// SIGINT/SIGTERM drains: in-flight queries finish and are answered, then
// the WAL is flushed and closed, the process prints "drained" and exits 0.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adskip"
	"adskip/internal/faultinject"
	"adskip/internal/server"
	"adskip/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":7878", "query service listen address")
		telemetry = flag.String("telemetry", "", "telemetry HTTP listen address (empty = off)")
		load      = flag.String("load", "", "load a table snapshot instead of generating data")
		rows      = flag.Int("rows", 1<<20, "rows to generate (ignored with -load)")
		dist      = flag.String("dist", "clustered", "distribution: sorted|semi-sorted|clustered|uniform|zipf|bimodal")
		seed      = flag.Int64("seed", workload.DataSeed, "RNG seed for generated data")
		policy    = flag.String("policy", "adaptive", "skipping policy: none|static|adaptive|imprint")
		zone      = flag.Int("zone", 0, "zone size for every policy (0 = default)")
		par       = flag.Int("parallelism", 1, "scan parallelism")
		maxConc   = flag.Int("max-concurrent", 0, "max in-flight queries across the DB (0 = unbounded)")
		maxConns  = flag.Int("max-conns", 0, "max simultaneous connections (0 = server default)")
		maxFrame  = flag.Int("max-frame", 0, "max protocol frame bytes (0 = default)")
		idle      = flag.Duration("idle", 0, "connection idle timeout (0 = default)")
		stmtCache = flag.Int("stmt-cache", 0, "statement cache capacity (0 = default)")
		skipCols  = flag.String("skip-cols", "v,seq", "comma-separated columns to enable skipping on")
		logMode   = flag.String("log", "off", "structured logging to stderr: off|text|json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		shards    = flag.Int("shards", 1, "partition each table into N shards with scatter-gather execution (1 = unsharded)")
		shardKey  = flag.String("shard-key", "v", "column sharding partitions on (requires -shards > 1)")
		shardBy   = flag.String("shard-by", "range", "partitioning scheme: range|hash (requires -shards > 1)")

		walDir     = flag.String("wal-dir", "", "write-ahead log directory: arms durable ingest and crash recovery (empty = volatile)")
		walWindow  = flag.Duration("wal-window", 0, "group-commit linger window (0 = default 2ms; requires -wal-dir)")
		walNoSync  = flag.Bool("wal-no-sync", false, "skip fsync on WAL writes (testing only: crashes lose acked data)")
		faultCrash = flag.String("fault-crash", "",
			"arm a deterministic crash as point:N (SIGKILL on the N-th trigger of that WAL injection point), e.g. wal-crash-after-sync:25; points: "+strings.Join(faultinject.Points(), ", "))
	)
	flag.Parse()

	logger := makeLogger(*logMode, *logLevel)
	opts := adskip.Options{
		ZoneSize:             *zone,
		Parallelism:          *par,
		MaxConcurrentQueries: *maxConc,
		Logger:               logger,
		Shards:               *shards,
		ShardKey:             *shardKey,
		ShardBy:              *shardBy,
	}
	if *walDir != "" {
		opts.Durability = adskip.Durability{
			Dir:          *walDir,
			GroupWindow:  *walWindow,
			DisableFsync: *walNoSync,
		}
	} else if *walWindow != 0 || *walNoSync {
		fatalf("-wal-window/-wal-no-sync require -wal-dir")
	}
	var err error
	if opts.Policy, err = adskip.ParsePolicy(*policy); err != nil {
		fatalf("%v", err)
	}
	db := adskip.Open(opts)

	var tbl *adskip.Table
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatalf("%v", err)
		}
		tbl, err = db.LoadTable(f)
		f.Close()
		if err != nil {
			fatalf("load %s: %v", *load, err)
		}
		fmt.Printf("loaded table %q: %d rows\n", tbl.Name(), tbl.NumRows())
	} else {
		tbl = generate(db, *rows, *dist, *seed)
		fmt.Printf("generated table %q: %d rows (%s)\n", tbl.Name(), tbl.NumRows(), *dist)
	}
	if n := tbl.Shards(); n > 1 {
		fmt.Printf("sharded: %d shards on %q (%s)\n", n, *shardKey, *shardBy)
	}
	for _, col := range strings.Split(*skipCols, ",") {
		col = strings.TrimSpace(col)
		if col == "" {
			continue
		}
		if err := tbl.EnableSkipping(col); err != nil {
			fatalf("enable skipping on %q: %v", col, err)
		}
	}

	if *telemetry != "" {
		url, err := db.StartTelemetry(*telemetry)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		fmt.Printf("telemetry: %s\n", url)
	}
	if *faultCrash != "" {
		armCrash(*faultCrash)
	}

	srv, err := server.Start(db, server.Options{
		Addr:          *addr,
		MaxConns:      *maxConns,
		MaxFrameBytes: *maxFrame,
		IdleTimeout:   *idle,
		StmtCacheSize: *stmtCache,
		Logger:        logger,
	})
	if err != nil {
		fatalf("%v", err)
	}
	// Arm the drain signal before announcing the address: a supervisor
	// that SIGTERMs the instant it sees output must get a graceful drain,
	// not the default kill disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("listening on %s\n", srv.Addr())

	// Recovery runs AFTER the listener is up: clients connecting during a
	// long replay get a retryable "recovering" refusal instead of a
	// connection error, so a retrying fleet rides through a restart. Base
	// data loaded or generated above is deterministic and is NOT in the
	// WAL — only post-recovery ingest is logged.
	if *walDir != "" {
		stats, err := db.Recover()
		if err != nil {
			fatalf("wal recovery: %v", err)
		}
		// One parseable line the crash-torture harness greps for.
		fmt.Printf("wal recovered: segments=%d records=%d rows=%d torn=%v dropped_bytes=%d elapsed=%s\n",
			stats.Segments, stats.Records, stats.Rows, stats.TornTail, stats.DroppedBytes,
			stats.Elapsed.Round(time.Microsecond))
	}
	fmt.Println("ready")

	<-sig
	fmt.Println("shutting down: draining connections")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "adskip-server: close: %v\n", err)
	}
	db.Close()
	fmt.Println("drained")
}

// armCrash installs a one-shot SIGKILL at a named WAL injection point:
// "point:N" fires on the N-th trigger of that point. This is how the
// crash-torture harness makes a child server die at a precise moment in
// the commit pipeline — deterministically, so a failure reproduces.
func armCrash(spec string) {
	name, nStr, ok := strings.Cut(spec, ":")
	if !ok {
		fatalf("-fault-crash: want point:N, got %q", spec)
	}
	p, err := faultinject.ParsePoint(name)
	if err != nil {
		fatalf("-fault-crash: %v (points: %s)", err, strings.Join(faultinject.Points(), ", "))
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 1 {
		fatalf("-fault-crash: bad trigger count %q", nStr)
	}
	faultinject.Activate(faultinject.New(1).
		Set(p, faultinject.Rule{After: n - 1, Limit: 1}))
	fmt.Printf("fault armed: %s on trigger %d\n", p, n)
}

// generate builds the workload package's "data" table in-process.
func generate(db *adskip.DB, rows int, dist string, seed int64) *adskip.Table {
	d, err := workload.ParseDistribution(dist)
	if err != nil {
		fatalf("%v", err)
	}
	cols := make([]adskip.ColumnDef, len(workload.DataColumns))
	for i, c := range workload.DataColumns {
		cols[i] = adskip.Col(c.Name, c.Type)
	}
	tbl, err := db.CreateTable("data", cols...)
	if err != nil {
		fatalf("%v", err)
	}
	if err := workload.DataBatches(d, rows, seed, tbl.AppendBatch); err != nil {
		fatalf("%v", err)
	}
	return tbl
}

// makeLogger builds the slog.Logger the engine and query service share,
// or nil (logging disabled) for mode "off".
func makeLogger(mode, level string) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fatalf("unknown log level %q", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch mode {
	case "off":
		return nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho))
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho))
	}
	fatalf("unknown log mode %q", mode)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adskip-server: "+format+"\n", args...)
	os.Exit(1)
}
