// Package adskip is an embeddable main-memory column store with adaptive
// data skipping, reproducing "Adaptive Data Skipping in Main-Memory
// Systems" (Qin & Idreos, SIGMOD 2016).
//
// The store executes scan-heavy SQL over in-memory columns. Lightweight
// zone metadata (min/max per row range) lets scans skip data; the adaptive
// policy reshapes that metadata from per-query feedback — splitting zones
// where finer bounds would prune, merging zones whose metadata never
// helps, and disabling skipping entirely on columns where probing cannot
// pay for itself.
//
// Quickstart:
//
//	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive})
//	t, _ := db.CreateTable("sales",
//		adskip.Col("id", adskip.Int64),
//		adskip.Col("price", adskip.Float64),
//		adskip.Col("city", adskip.String))
//	t.Append(1, 9.99, "oslo")
//	t.EnableSkipping()
//	res, _ := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 10")
package adskip

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adskip/internal/core"
	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/shard"
	"adskip/internal/sql"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/telemetry"
	"adskip/internal/wal"
)

// Type is a column's logical type.
type Type = storage.Type

// Column types.
const (
	Int64   = storage.Int64
	Float64 = storage.Float64
	String  = storage.String
)

// Value is a dynamically typed cell value.
type Value = storage.Value

// Value constructors, re-exported for result inspection and typed ingest.
var (
	IntValue    = storage.IntValue
	FloatValue  = storage.FloatValue
	StringValue = storage.StringValue
	NullValue   = storage.NullValue
)

// Policy selects the data-skipping policy.
type Policy = engine.Policy

// Skipping policies.
const (
	// None scans every row (baseline).
	None = engine.PolicyNone
	// Static uses classic fixed-granularity zonemaps.
	Static = engine.PolicyStatic
	// Adaptive uses adaptive zonemaps — the paper's contribution.
	Adaptive = engine.PolicyAdaptive
	// Imprint uses static column imprints (bin-occurrence masks per
	// zone): a second skipping structure under the same framework,
	// effective on multi-modal zones where min/max hulls cannot prune.
	Imprint = engine.PolicyImprint
)

// ParsePolicy maps a policy's name (Policy.String) back to the policy.
var ParsePolicy = engine.ParsePolicy

// SkipperInfo describes a column's skipping metadata.
type SkipperInfo = core.Metadata

// Result is a query result: a count, aggregate values, and/or projected
// rows, plus execution statistics (rows scanned/skipped/covered, zones
// probed) and a per-query trace (Result.Trace).
type Result = engine.Result

// Metrics is the engine-wide metrics registry: atomic counters, gauges,
// and fixed-bucket histograms, exposable in Prometheus text format
// (WritePrometheus). One registry is shared by every
// table of a DB; instrumentation is always on.
type Metrics = obs.Registry

// QueryTrace is the per-query execution trace attached to Result.Trace:
// phase timings (plan → metadata probe → scan → feedback), row totals,
// and the skipping decision each predicate column's skipper made.
type QueryTrace = obs.QueryTrace

// AdaptationRecord is one adaptation-ledger entry: a structural or
// arbitration change to a column's skipping metadata (zone split/merge,
// skipping disabled/enabled, tail fold, metadata built, skipper
// quarantined) with full provenance — cause, the query template
// whose feedback triggered it, the affected row window, and the
// before/after zone counts and value-bound hulls. Retained in a bounded
// ring; see DB.Adaptation and the telemetry /adaptation endpoint.
type AdaptationRecord = obs.LedgerRecord

// AdaptationROI is one column's adaptation return-on-investment row:
// rows/bytes skipped (credit) against zone probes and structural
// maintenance (debit), plus dead-zone accounting.
type AdaptationROI = obs.ColumnROI

// AdaptationSnapshot is the full adaptation-ledger view returned by
// DB.Adaptation and served by /adaptation: retained records plus
// per-column ROI rows.
type AdaptationSnapshot = obs.AdaptationSnapshot

// RecoveryStats summarizes one WAL replay pass, as returned by DB.Recover.
type RecoveryStats = wal.RecoveryStats

// WALStatus is a point-in-time view of the write-ahead log.
type WALStatus = wal.Status

// Limits bounds each query's resource consumption (rows scanned, result
// rows, wall-clock time). The zero value imposes no limits; enforcement
// happens at cooperative checkpoints, so overshoot is bounded by one
// checkpoint interval (65536 rows).
type Limits = engine.Limits

// WorkloadSnapshot is the point-in-time workload-analytics view returned
// by DB.Workload and served by the telemetry /workload endpoint: per-
// template call counts, latency quantiles and row/zone/byte totals.
type WorkloadSnapshot = stats.WorkloadSnapshot

// TemplateStats is one query template's aggregate inside a
// WorkloadSnapshot.
type TemplateStats = stats.TemplateSnapshot

// Workload sort orders accepted by DB.Workload.
const (
	SortTime  = stats.SortTime
	SortCalls = stats.SortCalls
	SortBytes = stats.SortBytes
)

// Resilience errors, re-exported for errors.Is checks on query results.
var (
	// ErrCanceled reports that a query's context was canceled or its
	// deadline expired mid-execution.
	ErrCanceled = engine.ErrCanceled
	// ErrBudget reports that a query exceeded one of its resource limits.
	ErrBudget = engine.ErrBudget
)

// Options configures a DB.
type Options struct {
	// Policy applies to columns on which EnableSkipping is called.
	Policy Policy
	// ZoneSize is the rows-per-zone for every policy: a static zone or
	// imprint, an adaptive map's initial zones, and a folded append tail
	// (default 65536).
	ZoneSize int
	// MinZoneRows is the Adaptive policy's finest zone: the part size its
	// zones split to (default 1024).
	MinZoneRows int
	// Parallelism sets the number of goroutines for count scans
	// (default 1; results are identical at any setting).
	Parallelism int
	// Limits bounds every query's resource consumption (zero = none).
	Limits Limits
	// MaxConcurrentQueries bounds in-flight queries across all tables of
	// this DB (0 = unbounded). Excess queries wait for admission and
	// honor their context while waiting.
	MaxConcurrentQueries int
	// Logger receives structured log events from every table's engine:
	// quarantines at warn, adaptation milestones at info, per-zone
	// structural churn at debug. Nil disables logging.
	Logger *slog.Logger
	// Durability, when Dir is set, arms a write-ahead log: appends are
	// group-committed to disk before they are acknowledged, and
	// DB.Recover replays them after a crash. A DB opened with
	// durability starts in recovering state — load the deterministic base
	// data (CreateTable/LoadTable + bulk load), then call Recover before
	// serving mutations.
	Durability Durability
	// Shards partitions every table created on this DB into per-core
	// shards behind a scatter-gather executor: queries shard-prune by
	// observed key bounds before any zone metadata is consulted, fan out
	// to the survivors in parallel, and merge. 0 or 1 means unsharded
	// (single engine). See DESIGN §13.
	Shards int
	// ShardKey names the shard key column (BIGINT or DOUBLE). Empty picks
	// each table's first numeric column. Ignored unless Shards > 1.
	ShardKey string
	// ShardBy selects the routing mode: "range" (default — learned
	// equi-depth bounds, range predicates on the key prune shards) or
	// "hash" (uniform placement, little shard pruning). Ignored unless
	// Shards > 1.
	ShardBy string
}

// Durability configures the write-ahead log (see Options.Durability).
type Durability struct {
	// Dir is the WAL segment directory; empty disables durability.
	Dir string
	// GroupWindow bounds how long a commit may linger waiting to share an
	// fsync with concurrent writers (default 2ms). Larger windows
	// amortize fsync across more writers at the cost of commit latency.
	GroupWindow time.Duration
	// DisableFsync keeps the logging and group-commit machinery but skips
	// fsync — for benchmarks isolating fsync cost. No crash durability.
	DisableFsync bool
}

// ColumnDef defines one column of a new table.
type ColumnDef struct {
	Name string
	Type Type
}

// Col is a convenience constructor for ColumnDef.
func Col(name string, typ Type) ColumnDef { return ColumnDef{Name: name, Type: typ} }

// executor is the per-table query backend: a plain *engine.Engine, or a
// *shard.Manager fanning out to per-shard engines. Everything the facade
// drives goes through this surface so sharded and unsharded tables are
// interchangeable past CreateTable.
type executor interface {
	sql.Executor
	NumRows() int
	AppendRow(vals ...storage.Value) error
	AppendRows(rows [][]storage.Value) error
	EnableSkipping(cols ...string) error
	SkipperMetadata() map[string]core.Metadata
	VerifySkipping(cols ...string) error
	SetWAL(l *wal.Log)
	ReplayRecord(rec *wal.Record) error
	// ReadTable runs fn over the table's cells as data — the engine's own
	// table under its mutex, or a merged copy of a sharded table (shard
	// order; ascending key order in range mode) — for snapshot and export.
	ReadTable(fn func(*table.Table) error) error
	// Shards is the table's shard count (1 when unsharded); AdaptationROI
	// reports one ROI row per column per shard.
	Shards() int
	AdaptationROI(maxDead int) []obs.ColumnROI
}

// DB is a catalog of tables sharing one skipping configuration and one
// observability plane (metrics registry, adaptation ledger, trace ring,
// and an optional embedded telemetry server).
type DB struct {
	opts Options
	// engineOpts is every table's engine options: engines share the DB's
	// registry and ledger; admission, workload attribution and trace
	// retention are the front door's (door.go).
	engineOpts engine.Options
	reg        *obs.Registry
	ledger     *obs.Ledger
	admission  *admission
	traces     *obs.TraceRing

	// mu guards the catalog and the telemetry handle: the telemetry
	// server's Adaptation/trace closures read engines concurrently with
	// CreateTable/LoadTable/LoadCSV.
	mu      sync.RWMutex
	engines map[string]executor
	telem   *telemetry.Server

	// stats is the catalog-wide workload analytics table, bounded at
	// stats.DefaultMaxTemplates templates. Set once at Open.
	stats *stats.Table

	// wal is the armed write-ahead log (nil until Recover completes on a
	// DB with Options.Durability). Guarded by mu; recovering is read on
	// request paths, hence atomic. recoverMu serializes whole Recover
	// calls, so two concurrent callers cannot both open (and double-
	// replay) the same directory.
	wal        *wal.Log
	recoverMu  sync.Mutex
	recovering atomic.Bool
}

// DB-level errors.
var (
	ErrNoSuchTable = errors.New("adskip: no such table")
	ErrTableExists = errors.New("adskip: table already exists")
)

// Open creates an empty database. It starts no goroutine: the telemetry
// server starts with StartTelemetry.
func Open(opts Options) *DB {
	reg, ledger := obs.NewRegistry(), obs.NewLedger(0)
	db := &DB{
		opts: opts,
		engineOpts: engine.Options{
			Policy:      opts.Policy,
			ZoneSize:    opts.ZoneSize,
			MinZoneRows: opts.MinZoneRows,
			Parallelism: opts.Parallelism,
			Metrics:     reg,
			Ledger:      ledger,
			Limits:      opts.Limits,
			Logger:      opts.Logger,
		},
		engines:   make(map[string]executor),
		reg:       reg,
		ledger:    ledger,
		admission: newAdmission(opts.MaxConcurrentQueries),
		traces:    obs.NewTraceRing(obs.DefaultTraceRingSize),
	}
	db.reg.GaugeFunc("adskip_admission_waiting",
		"Queries waiting for an execution slot (MaxConcurrentQueries).", db.admission.queued)
	db.stats = stats.New(db.reg)
	// A durable DB starts in recovering state: mutations are not durable
	// (and servers should refuse them) until Recover has replayed the log
	// and armed the engines.
	db.recovering.Store(opts.Durability.Dir != "")
	return db
}

// Traces returns the most recent query traces across all tables,
// oldest-first (a ring of the last obs.DefaultTraceRingSize): one per
// logical query, in the order the queries completed.
func (db *DB) Traces() []*QueryTrace { return db.traces.Snapshot() }

// Workload returns the per-template workload statistics: the top-k query
// templates under the given sort order (adskip.SortTime, SortCalls, or
// SortBytes; "" sorts by total time, k <= 0 returns every template).
func (db *DB) Workload(sortBy string, k int) WorkloadSnapshot {
	return db.stats.Snapshot(sortBy, k)
}

// Adaptation returns the adaptation-ledger snapshot: the retained
// zone-lifecycle records (oldest-first, with drop accounting) and one
// ROI row per column per shard across the whole catalog. maxDead caps
// each column's dead-zone detail (<= 0 omits the detail, keeping the
// counts).
func (db *DB) Adaptation(maxDead int) AdaptationSnapshot {
	db.mu.RLock()
	engines := make([]executor, 0, len(db.engines))
	for _, e := range db.engines {
		engines = append(engines, e)
	}
	db.mu.RUnlock()
	snap := AdaptationSnapshot{
		Total:   db.ledger.Seq(),
		Dropped: db.ledger.Dropped(),
		Events:  db.ledger.Records(),
		ROI:     []AdaptationROI{},
	}
	for _, e := range engines {
		snap.ROI = append(snap.ROI, e.AdaptationROI(maxDead)...)
	}
	sort.Slice(snap.ROI, func(i, j int) bool {
		a, b := snap.ROI[i], snap.ROI[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Shard < b.Shard
	})
	return snap
}

// StartTelemetry starts the embedded telemetry HTTP server on addr
// ("127.0.0.1:0" when empty — an ephemeral localhost port) and returns
// the server's base URL. The server exposes /metrics (Prometheus, with
// the Go runtime gauges), /traces, /health, /workload, /adaptation and
// /debug/pprof/*; it is the only goroutine started and runs until
// DB.Close. Starting twice is an error.
func (db *DB) StartTelemetry(addr string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.telem != nil {
		return "", errors.New("adskip: telemetry server already running")
	}
	srv, err := telemetry.Start(addr, telemetry.Source{
		Registry:   db.reg,
		Traces:     db.traces,
		Recovering: db.Recovering,
		Workload:   db.stats,
		Adaptation: db.Adaptation,
	})
	if err != nil {
		return "", err
	}
	db.telem = srv
	return srv.URL(), nil
}

// TelemetryAddr returns the telemetry server's bound listen address, or
// "" when no server is running.
func (db *DB) TelemetryAddr() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.telem == nil {
		return ""
	}
	return db.telem.Addr()
}

// Close releases the DB's background resources: the write-ahead log is
// flushed and closed, and the telemetry server (if started) shuts down.
// Tables stay readable after Close. Safe to call on a DB that never
// started telemetry.
func (db *DB) Close() error {
	db.mu.Lock()
	srv := db.telem
	l := db.wal
	db.telem = nil
	db.wal = nil
	db.mu.Unlock()
	var err error
	if l != nil {
		// Flush and fsync the log before the process can exit: the drain
		// half of SIGTERM handling.
		err = l.Close()
	}
	if srv != nil {
		err = errors.Join(err, srv.Close())
	}
	return err
}

// Metrics returns the database's metrics registry, shared by all tables.
// Use WritePrometheus on it for exposition.
func (db *DB) Metrics() *Metrics { return db.reg }

// AdaptationEvents returns a chronological copy of the retained
// adaptation records across all tables (bounded ring; oldest drop
// first): the Events of DB.Adaptation without the ROI rows.
func (db *DB) AdaptationEvents() []AdaptationRecord { return db.ledger.Records() }

// ExplainAnalyze parses and executes a SQL SELECT, returning the rendered
// EXPLAIN ANALYZE plan (phase timings, per-predicate estimated vs actual
// pruning) alongside the executed result. Equivalent to Exec with an
// "EXPLAIN ANALYZE" prefix, but returns the lines directly. Like
// ExecContext, execution honors ctx's cancellation and deadline.
func (db *DB) ExplainAnalyze(ctx context.Context, query string) ([]string, *Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	e, ok := db.lookup(stmt.Table)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchTable, stmt.Table)
	}
	q, err := sql.Plan(stmt, e.Table())
	if err != nil {
		return nil, nil, err
	}
	return door{e, db}.ExplainAnalyzeContext(obs.WithTemplate(ctx, sql.Fingerprint(stmt)), q)
}

// lookup resolves a table name to its executor under the catalog lock.
func (db *DB) lookup(name string) (executor, bool) {
	db.mu.RLock()
	e, ok := db.engines[name]
	db.mu.RUnlock()
	return e, ok
}

// register adds an engine to the catalog; it fails if the name is taken.
// Tables created after Recover are armed with the WAL immediately.
func (db *DB) register(name string, e executor) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.engines[name]; dup {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	db.engines[name] = e
	if db.wal != nil {
		e.SetWAL(db.wal)
	}
	return nil
}

// Recovering reports whether the DB is a durable store that has not yet
// completed Recover. Servers refuse mutations (and queries, whose answers
// would predate the replayed tail) while recovering, and the telemetry
// /health probe answers 503. Lock-free.
func (db *DB) Recovering() bool { return db.recovering.Load() }

// Recover replays the write-ahead log at Options.Durability.Dir into the
// catalog's tables, verifies every table's skipping metadata against the
// recovered contents, then arms the WAL so subsequent appends are
// durable. Call it exactly once, after the deterministic base data is
// loaded (replay routes records by table name and errors on unknown
// tables) and before serving mutations. On a fresh directory it succeeds
// with zero records — Recover is how a durable DB arms its WAL, crash or
// no crash.
func (db *DB) Recover() (RecoveryStats, error) {
	if db.opts.Durability.Dir == "" {
		return RecoveryStats{}, errors.New("adskip: Options.Durability.Dir not set")
	}
	// Hold recoverMu across open+verify+arm: a second concurrent Recover
	// must observe the first one's armed WAL, not race past the check and
	// replay the directory twice.
	db.recoverMu.Lock()
	defer db.recoverMu.Unlock()
	db.mu.RLock()
	armed := db.wal != nil
	db.mu.RUnlock()
	if armed {
		return RecoveryStats{}, errors.New("adskip: Recover already completed")
	}
	d := db.opts.Durability
	l, stats, err := wal.Open(wal.Options{
		Dir:         d.Dir,
		GroupWindow: d.GroupWindow,
		NoSync:      d.DisableFsync,
		Metrics:     db.reg,
		Logger:      db.opts.Logger,
	}, func(rec *wal.Record) error {
		e, ok := db.lookup(rec.Table)
		if !ok {
			return fmt.Errorf("%w: %q (create tables before Recover)", ErrNoSuchTable, rec.Table)
		}
		return e.ReplayRecord(rec)
	})
	if err != nil {
		return stats, err
	}
	// The replayed state must satisfy every skipping invariant before the
	// store accepts new writes on top of it.
	db.mu.RLock()
	engines := make([]executor, 0, len(db.engines))
	for _, e := range db.engines {
		engines = append(engines, e)
	}
	db.mu.RUnlock()
	var verr error
	for _, e := range engines {
		if err := e.VerifySkipping(); err != nil {
			verr = errors.Join(verr, fmt.Errorf("table %q: %w", e.Table().Name(), err))
		}
	}
	if verr != nil {
		l.Close()
		return stats, fmt.Errorf("adskip: recovery verification failed: %w", verr)
	}
	db.mu.Lock()
	db.wal = l
	for _, e := range db.engines {
		e.SetWAL(l)
	}
	db.mu.Unlock()
	db.recovering.Store(false)
	return stats, nil
}

// WALStatus reports the write-ahead log's current state; ok is false
// until Recover has armed it.
func (db *DB) WALStatus() (WALStatus, bool) {
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l == nil {
		return WALStatus{}, false
	}
	return l.Status(), true
}

// SyncWAL forces everything logged so far to disk and waits — the drain
// path for graceful shutdown. No-op without an armed WAL.
func (db *DB) SyncWAL() error {
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l == nil {
		return nil
	}
	return l.Sync()
}

// CompactWAL recycles WAL segments whose every record has LSN <=
// throughLSN, asserting those records are captured elsewhere (e.g. via
// SaveTable). LSNs are stable across restarts, so a horizon recorded
// alongside a snapshot stays valid after a crash and recovery. Returns
// how many segments were recycled.
func (db *DB) CompactWAL(throughLSN uint64) (int, error) {
	db.mu.RLock()
	l := db.wal
	db.mu.RUnlock()
	if l == nil {
		return 0, errors.New("adskip: no WAL armed")
	}
	return l.Compact(throughLSN)
}

// CreateTable creates a table with the given columns.
func (db *DB) CreateTable(name string, cols ...ColumnDef) (*Table, error) {
	if _, dup := db.lookup(name); dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	schema := make(table.Schema, len(cols))
	for i, c := range cols {
		schema[i] = table.ColumnSpec{Name: c.Name, Type: c.Type}
	}
	tbl, err := table.New(name, schema)
	if err != nil {
		return nil, err
	}
	e, err := db.newExecutor(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.register(name, e); err != nil {
		return nil, err
	}
	return &Table{db: db, eng: e}, nil
}

// newExecutor builds the execution stack for a table: a single engine,
// or — when Options.Shards > 1 — a shard manager that partitions the
// table's rows across per-core engines and scatter-gathers queries.
func (db *DB) newExecutor(tbl *table.Table) (executor, error) {
	if db.opts.Shards <= 1 {
		return engine.New(tbl, db.engineOpts), nil
	}
	mode, err := shard.ParseMode(db.opts.ShardBy)
	if err != nil {
		return nil, fmt.Errorf("adskip: %w", err)
	}
	m, err := shard.NewFromTable(tbl, shard.Options{
		Shards: db.opts.Shards,
		Key:    db.opts.ShardKey,
		Mode:   mode,
		Engine: db.engineOpts,
	})
	if err != nil {
		return nil, fmt.Errorf("adskip: %w", err)
	}
	return m, nil
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, error) {
	e, ok := db.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return &Table{db: db, eng: e}, nil
}

// TableNames lists the catalog in lexicographic order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.engines))
	for n := range db.engines {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Exec parses and executes a SQL SELECT, routing by the FROM table.
// EXPLAIN statements return the plan as rows of a single "plan" column.
func (db *DB) Exec(query string) (*Result, error) {
	return db.ExecContext(context.Background(), query)
}

// ExecContext is Exec under a context: execution checks ctx at cooperative
// checkpoints (at least once per 65536 rows scanned), so cancellation and
// deadlines take effect mid-scan. A canceled query returns an error
// wrapping ErrCanceled.
func (db *DB) ExecContext(ctx context.Context, query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	e, ok := db.lookup(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, stmt.Table)
	}
	return sql.ExecParsedContext(ctx, door{e, db}, stmt)
}

// SaveTable serializes a table snapshot to w (binary, checksummed).
func (db *DB) SaveTable(name string, w io.Writer) error {
	e, ok := db.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return e.ReadTable(func(tbl *table.Table) error {
		_, err := tbl.WriteTo(w)
		return err
	})
}

// LoadTable reads a table snapshot from r and registers it in the
// catalog under its stored name.
func (db *DB) LoadTable(r io.Reader) (*Table, error) {
	tbl, err := table.Read(r)
	if err != nil {
		return nil, err
	}
	e, err := db.newExecutor(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.register(tbl.Name(), e); err != nil {
		return nil, err
	}
	return &Table{db: db, eng: e}, nil
}

// CSVOptions re-exports the table layer's CSV ingest options.
type CSVOptions = table.CSVOptions

// LoadCSV ingests a CSV stream as a new table, inferring column types
// from a data prefix unless opts.Schema is set.
func (db *DB) LoadCSV(name string, r io.Reader, opts CSVOptions) (*Table, error) {
	if _, dup := db.lookup(name); dup {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	tbl, err := table.ReadCSV(r, name, opts)
	if err != nil {
		return nil, err
	}
	e, err := db.newExecutor(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.register(name, e); err != nil {
		return nil, err
	}
	return &Table{db: db, eng: e}, nil
}

// Table is a handle to one table and its execution stack (a single query
// engine, or a shard manager when the DB is sharded). Its queries enter
// through the DB's front door.
type Table struct {
	db  *DB
	eng executor
}

// WriteCSV writes the table's rows as CSV with a header. NULLs render as
// nullLit. On a sharded table the export is a merged snapshot.
func (t *Table) WriteCSV(w io.Writer, nullLit string) error {
	return t.eng.ReadTable(func(tbl *table.Table) error {
		return tbl.WriteCSV(w, nullLit)
	})
}

// Name returns the table name.
func (t *Table) Name() string { return t.eng.Table().Name() }

// NumRows returns the current row count.
func (t *Table) NumRows() int { return t.eng.NumRows() }

// Shards returns the table's shard count: 1 for an unsharded table.
func (t *Table) Shards() int { return t.eng.Shards() }

// Append ingests one row using native Go values: int/int64 for BIGINT,
// float64 for DOUBLE, string for VARCHAR, nil for NULL.
func (t *Table) Append(vals ...interface{}) error {
	tbl := t.eng.Table()
	schema := tbl.Schema()
	if len(vals) != len(schema) {
		return fmt.Errorf("adskip: got %d values, schema has %d columns", len(vals), len(schema))
	}
	converted := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := toValue(v, schema[i].Type)
		if err != nil {
			return fmt.Errorf("column %q: %w", schema[i].Name, err)
		}
		converted[i] = cv
	}
	return t.eng.AppendRow(converted...)
}

// AppendBatch ingests a batch of typed rows atomically with respect to
// queries. On a durable DB the whole batch is one WAL record and one
// group-commit wait, so batching is the high-throughput ingest path.
func (t *Table) AppendBatch(rows [][]Value) error { return t.eng.AppendRows(rows) }

// EnableSkipping builds skipping metadata on the named columns (all when
// none given) using the database's policy.
func (t *Table) EnableSkipping(cols ...string) error { return t.eng.EnableSkipping(cols...) }

// SkipperInfo reports per-column metadata state.
func (t *Table) SkipperInfo() map[string]SkipperInfo { return t.eng.SkipperMetadata() }

// Query executes an engine-level query (advanced API; most callers use
// DB.Exec with SQL). Like a SQL query it is admitted, and its trace is
// retained in DB.Traces.
func (t *Table) Query(q engine.Query) (*Result, error) {
	return t.db.query(context.Background(), t.eng, q)
}

// QueryContext is Query under a context: cancellation and deadlines take
// effect at cooperative scan checkpoints, and a template fingerprint on
// ctx attributes the query to that template in DB.Workload.
func (t *Table) QueryContext(ctx context.Context, q engine.Query) (*Result, error) {
	return t.db.query(ctx, t.eng, q)
}

// VerifySkipping revalidates skipping metadata against column contents
// (one O(rows) pass per column), dropping the skipper of any column that
// fails; EnableSkipping builds it afresh.
func (t *Table) VerifySkipping(cols ...string) error { return t.eng.VerifySkipping(cols...) }

// Engine exposes the underlying engine for advanced integration (the
// experiment harness uses it). Returns nil on a sharded table, whose
// rows are spread across per-shard engines — use Executor instead. Like
// Executor, it is behind the front door.
func (t *Table) Engine() *engine.Engine {
	e, _ := t.eng.(*engine.Engine)
	return e
}

// Executor exposes the table's execution stack — an *engine.Engine or a
// sharded scatter-gather manager — behind the sql.Executor surface. It is
// the raw executor, behind the front door: queries sent through it are
// not admitted, attributed to a template, or retained in DB.Traces.
func (t *Table) Executor() sql.Executor { return t.eng }

// toValue converts a native Go value to a typed Value for the target
// column type.
func toValue(v interface{}, want Type) (Value, error) {
	if v == nil {
		return NullValue(want), nil
	}
	switch x := v.(type) {
	case Value:
		return x, nil
	case int:
		return coerceInt(int64(x), want)
	case int32:
		return coerceInt(int64(x), want)
	case int64:
		return coerceInt(x, want)
	case float64:
		if want != Float64 {
			return Value{}, fmt.Errorf("adskip: float64 value for %s column", want)
		}
		return FloatValue(x), nil
	case string:
		if want != String {
			return Value{}, fmt.Errorf("adskip: string value for %s column", want)
		}
		return StringValue(x), nil
	default:
		return Value{}, fmt.Errorf("adskip: unsupported Go type %T", v)
	}
}

func coerceInt(x int64, want Type) (Value, error) {
	switch want {
	case Int64:
		return IntValue(x), nil
	case Float64:
		return FloatValue(float64(x)), nil
	default:
		return Value{}, fmt.Errorf("adskip: integer value for %s column", want)
	}
}
