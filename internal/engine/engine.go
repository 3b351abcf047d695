// Package engine executes queries over tables with pluggable data-skipping
// policies, closing the adaptive feedback loop: it probes skippers for
// candidate row windows, scans them with the fast kernels, and once the
// scan has completed hands each skipper its probe result and the
// statistics gathered for the candidates that asked for them.
package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"adskip/internal/adaptive"
	"adskip/internal/core"
	"adskip/internal/faultinject"
	"adskip/internal/imprint"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
	"adskip/internal/zonemap"
)

// Policy selects the data-skipping policy applied to indexed columns.
type Policy int

const (
	// PolicyNone scans everything (baseline).
	PolicyNone Policy = iota
	// PolicyStatic uses fixed-granularity zonemaps.
	PolicyStatic
	// PolicyAdaptive uses adaptive zonemaps (the paper's contribution).
	PolicyAdaptive
	// PolicyImprint uses static column imprints (bin-occurrence masks per
	// zone) — a second skipping structure under the same framework.
	PolicyImprint
)

// policyNames is the one name table: String reads it and ParsePolicy
// inverts it.
var policyNames = [...]string{
	PolicyNone: "none", PolicyStatic: "static", PolicyAdaptive: "adaptive", PolicyImprint: "imprint",
}

// String names the policy.
func (p Policy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(name string) (Policy, error) {
	for p, n := range policyNames {
		if n == name {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want %s)", name, strings.Join(policyNames[:], "|"))
}

// DefaultZoneSize is every policy's zone size when Options.ZoneSize is 0.
const DefaultZoneSize = 65536

// Options configures an Engine. An engine executes queries and keeps its
// own metrics; admitting a query, attributing it to a template and
// retaining its trace belong to the adskip facade's front door, which does
// each once per logical query, over an engine or a shard manager alike.
type Options struct {
	// Policy is the skipping policy for columns registered with
	// EnableSkipping.
	Policy Policy
	// ZoneSize is every policy's zone size: the rows of a static zone, an
	// imprint, an adaptive map's initial zones and a folded append tail.
	ZoneSize int
	// MinZoneRows is PolicyAdaptive's part size: the rows of a part of
	// its fine summary, and so the floor of a split. Default
	// adaptive.DefaultMinZoneRows.
	MinZoneRows int
	// Parallelism is the number of goroutines used by the COUNT fast
	// path's scans, full scans (one candidate) included: the candidates
	// are cut into that many groups of about equal rows. Every other
	// query runs serially, and so does the one retry after a recovered
	// panic. Default 1 (the experiment harness measures single-threaded
	// behavior like the paper). Results and learning are identical at any
	// setting: counting is associative, and a skipper learns from the
	// probe's result alone.
	Parallelism int
	// Metrics receives the engine's instrumentation. Instrumentation is
	// always on: when nil, the engine creates a private registry. Share
	// one registry across engines (the DB facade does) to aggregate
	// metrics catalog-wide.
	Metrics *obs.Registry
	// Ledger receives the adaptation records: every structural change
	// (split, merge, arbitration flip, fold, build, quarantine)
	// with its cause, the fingerprint of the query
	// that triggered it, and the before/after bounds. When nil, the
	// engine creates a private ledger. Share one ledger across engines
	// (the DB facade does) so /adaptation sees catalog-wide history;
	// per-shard records stay distinguishable by their shard stamp.
	Ledger *obs.Ledger
	// Limits bounds each query's resource consumption (zero value = no
	// limits). Enforced at cooperative checkpoints; see Limits.
	Limits Limits
	// Logger receives structured log events: quarantines (warn) and
	// adaptation milestones — skipper built and arbitration flips at
	// info, per-zone splits/merges at debug. Nil
	// disables logging entirely.
	Logger *slog.Logger
	// Shard is this engine's 1-based shard number when it is one shard of
	// a sharded table (see internal/shard). 0 (the default) means the
	// engine owns the whole table. A sharded engine labels every metric
	// series with shard="N" — per-shard series stay distinct in a shared
	// registry — and stamps N into the WAL records it writes so recovery
	// can route each record back to the shard that logged it.
	Shard int
}

func (o Options) withDefaults() Options {
	if o.ZoneSize <= 0 {
		o.ZoneSize = DefaultZoneSize
	}
	if o.MinZoneRows <= 0 {
		o.MinZoneRows = adaptive.DefaultMinZoneRows
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Engine executes queries over one table.
//
// All public methods are safe for concurrent use: queries are serialized
// with a mutex because even read-only SQL mutates adaptive metadata (the
// feedback loop is what makes the structure adaptive). The scan work
// inside one query can still fan out across goroutines via
// Options.Parallelism.
type Engine struct {
	mu       sync.Mutex
	tbl      *table.Table
	opts     Options
	skippers map[string]core.Skipper

	// Observability: the registry and ledger may be shared across
	// engines; metric handles are resolved once so the per-query cost is
	// atomic adds only. trace is the in-flight query's trace and colM the
	// per-column handles, both guarded by mu like all query state.
	reg    *obs.Registry
	ledger *obs.Ledger
	m      engMetrics
	colM   map[string]*colMetrics
	trace  *obs.QueryTrace
	log    *slog.Logger

	// wal, when armed via SetWAL, makes appends durable: batches are
	// logged (group-committed) before they touch the columns. Guarded by
	// mu.
	wal *wal.Log
}

// Errors returned by the engine.
var (
	ErrUnsupportedAgg = errors.New("engine: unsupported aggregate")
	ErrBadLimit       = errors.New("engine: negative limit")
)

// New creates an engine over tbl. Skipping starts disabled on all columns;
// call EnableSkipping to build metadata.
func New(tbl *table.Table, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		tbl:      tbl,
		opts:     opts,
		skippers: make(map[string]core.Skipper),
	}
	e.reg = opts.Metrics
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.ledger = opts.Ledger
	if e.ledger == nil {
		e.ledger = obs.NewLedger(0)
	}
	e.m = newEngMetrics(e.reg, tbl.Name(), opts.Shard)
	e.colM = make(map[string]*colMetrics)
	e.log = opts.Logger
	return e
}

// Table returns the underlying table: its schema is fixed and free to
// read; its cells are not (see ReadTable).
func (e *Engine) Table() *table.Table { return e.tbl }

// ReadTable runs fn over the table under the engine mutex: how cells are
// read from outside a query (snapshot, CSV export, shard merge). Reading a
// column's cells consolidates the rows appends have staged beside it, which
// mutates the column; the mutex serialises that with appends, with queries
// and with other readers, and fn sees a table no append is halfway through.
// fn must not call back into the engine (the mutex is held) and must not
// retain the table's slices.
func (e *Engine) ReadTable(fn func(*table.Table) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn(e.tbl)
}

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Ledger returns the adaptation ledger this engine journals into.
func (e *Engine) Ledger() *obs.Ledger { return e.ledger }

// EnableSkipping builds skipping metadata for the named columns (all
// columns when none are named) according to the engine's policy, from the
// columns' base data: a column whose skipper was dropped after a fault gets
// a fresh one, and a skipper already in place is replaced. String columns
// get their dictionaries sealed first so code order is value order; an
// empty dictionary stays open until rows bring it values (syncSkippers).
func (e *Engine) EnableSkipping(cols ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(cols) == 0 {
		for _, cs := range e.tbl.Schema() {
			cols = append(cols, cs.Name)
		}
	}
	for _, name := range cols {
		if err := e.buildSkipperLocked(name); err != nil {
			return err
		}
	}
	return nil
}

// buildSkipperLocked constructs fresh skipping metadata for one column
// from its base data. Caller holds e.mu.
func (e *Engine) buildSkipperLocked(name string) error {
	col, err := e.tbl.Column(name)
	if err != nil {
		return err
	}
	if col.Type() == storage.String && col.Dict().Len() > 0 {
		col.SealDict()
	}
	switch e.opts.Policy {
	case PolicyNone:
		e.skippers[name] = core.NewNoSkipper(col.Len())
	case PolicyStatic:
		e.skippers[name] = zonemap.Build(col.Vec(), col.Nulls(), e.opts.ZoneSize)
	case PolicyAdaptive:
		e.skippers[name] = adaptive.New(col.Vec(), col.Nulls(), e.opts.ZoneSize, e.opts.MinZoneRows)
	case PolicyImprint:
		e.skippers[name] = imprint.Build(col.Vec(), col.Nulls(), e.opts.ZoneSize)
	default:
		return fmt.Errorf("engine: unknown policy %d", e.opts.Policy)
	}
	// Hook the skipper into the observability layer: the journal sink (it
	// resolves the column's counters and gauges) and the lifecycle record.
	s := e.skippers[name]
	journal := e.journal(name)
	s.SetJournal(journal)
	journal(obs.LedgerRecord{
		Kind: obs.EventSkipperBuilt, Cause: "build",
		ZonesAfter: s.Metadata().Zones, RowHi: s.Rows(),
	})
	return nil
}

// Skipper returns the skipper for a column, or nil if none is registered.
func (e *Engine) Skipper(col string) core.Skipper { return e.skippers[col] }

// SkipperMetadata reports metadata for every registered skipper, keyed by
// column name.
func (e *Engine) SkipperMetadata() map[string]core.Metadata {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]core.Metadata, len(e.skippers))
	for name, s := range e.skippers {
		out[name] = s.Metadata()
	}
	return out
}

// NumRows returns the table's current row count under the engine mutex —
// safe against concurrent appends (Table().NumRows() is not).
func (e *Engine) NumRows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tbl.NumRows()
}

// AppendRow appends one row: the one-row case of AppendRows. Skipper
// metadata is synchronized lazily at the next query, so ingest pays no
// per-row metadata cost.
func (e *Engine) AppendRow(vals ...storage.Value) error {
	return e.AppendRows([][]storage.Value{vals})
}

// AppendRows appends a batch of rows atomically with respect to queries.
// With a WAL armed (SetWAL) the batch is logged as one record of column
// blocks before the tail mutates, the in-memory apply happens under the engine
// mutex, and the call then blocks OUTSIDE the mutex until the record is
// durable — so an acknowledged append is always recoverable, and
// concurrent appenders coalesce into shared fsyncs (group commit) instead
// of serializing on the disk.
func (e *Engine) AppendRows(rows [][]storage.Value) error {
	c, err := e.AppendRowsAsync(rows)
	if err != nil {
		return err
	}
	return c.Wait()
}

// AppendRowsAsync is AppendRows without the durability wait: the batch is
// logged and applied, and the returned Commit lets the caller overlap
// further appends with the group commit in flight — the pipelined shape
// sustained ingest needs, since a full commit pipeline is what lets one
// fsync absorb many batches. The caller MUST NOT acknowledge the rows to
// anyone until Wait returns nil; with no WAL armed the zero Commit waits
// instantly.
//
// The order is stage -> log -> commit: staging rejects every batch the
// table could refuse (arity, type, NaN, string missing from a sealed
// dictionary) before anything is logged, and encodes the rest into room
// the columns do not count yet; the log record is those staged codes, one
// column block per column, not a second walk of the rows; the commit after
// it cannot fail, so the table never diverges from the log's BaseRow
// chain; and a batch the table or the log refuses is dropped where it is
// staged, with nothing visible to take back.
func (e *Engine) AppendRowsAsync(rows [][]storage.Value) (wal.Commit, error) {
	if len(rows) == 0 {
		return wal.Commit{}, nil
	}
	e.mu.Lock()
	staged, err := e.tbl.Stage(rows)
	var commit wal.Commit
	if err == nil {
		commit, err = e.logAndCommitLocked(staged)
	}
	e.mu.Unlock()
	return commit, err
}

// logAndCommitLocked is the second half of an append, under e.mu: it logs
// a staged batch, when a WAL is armed, and commits it.
func (e *Engine) logAndCommitLocked(staged table.Staged) (wal.Commit, error) {
	var commit wal.Commit
	if e.wal != nil {
		c, err := e.wal.Append(&wal.Record{
			Kind:    wal.KindColumns,
			Table:   e.tbl.Name(),
			Shard:   uint32(e.opts.Shard),
			BaseRow: uint64(e.tbl.NumRows()),
			Blocks:  e.tbl.Blocks(staged),
		})
		if err != nil {
			return wal.Commit{}, fmt.Errorf("engine: durable append: %w", err)
		}
		commit = c
	}
	e.tbl.Commit(staged)
	faultinject.Crash(faultinject.CrashWALAfterApply)
	return commit, nil
}

// Gathered is one batch staged for several engines at once, each engine's
// rows gathered from it and none committed yet: Gather's result. Every
// engine is held — queries and appends on it wait — until Commit.
type Gathered struct {
	engines []*Engine
	staged  []table.Staged
}

// Gather stages, for each engine, batch rows rows[i] of src, a batch
// StageApart staged against the engines' schema (table.StageGather), and
// holds every engine until the batch is committed (Commit). A batch
// one engine would refuse — a string its sealed dictionary lacks — is
// refused for all of them, with nothing staged: the error names the batch
// row. Engines are taken in the order given, so concurrent callers must
// list them in one order; once all are held, each stages into its own
// table on a goroutine of its own.
func Gather(engines []*Engine, src table.Staged, rows [][]int32) (*Gathered, error) {
	g := &Gathered{engines: engines, staged: make([]table.Staged, len(engines))}
	for _, e := range engines {
		e.mu.Lock()
	}
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.staged[i+1], errs[i+1] = e.tbl.StageGather(src, rows[i+1])
		}()
	}
	g.staged[0], errs[0] = engines[0].tbl.StageGather(src, rows[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, e := range engines {
				e.mu.Unlock()
			}
			return nil, err
		}
	}
	return g, nil
}

// Commit logs and commits each engine's rows, in order, releasing each
// engine once its rows are in, and returns each engine's durability wait
// (see AppendRowsAsync). Staging refused what a table could refuse, so
// only the log can fail here: the engines before the one whose record it
// refused hold their rows, the rest do not.
func (g *Gathered) Commit() ([]wal.Commit, error) {
	commits := make([]wal.Commit, len(g.engines))
	for i, e := range g.engines {
		c, err := e.logAndCommitLocked(g.staged[i])
		e.mu.Unlock()
		if err != nil {
			for _, e := range g.engines[i+1:] {
				e.mu.Unlock()
			}
			return nil, err
		}
		commits[i] = c
	}
	return commits, nil
}

// SetWAL arms (or, with nil, disarms) write-ahead logging on the append
// path. The facade arms engines only after recovery has replayed the
// existing log, so replayed batches are never re-logged.
func (e *Engine) SetWAL(l *wal.Log) {
	e.mu.Lock()
	e.wal = l
	e.mu.Unlock()
}

// WAL returns the armed log, or nil.
func (e *Engine) WAL() *wal.Log {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.wal
}

// ReplayRecord applies one recovered WAL record, bypassing the log.
// Replay is idempotent over the BaseRow chain (see table.Replay, which a
// snapshot load runs too): a record whose rows are already present is
// skipped, a partially present record appends only the missing suffix,
// and a record that would leave a gap errors out. Replayed batches are
// staged like any append (recovery copies no column); the first query
// consolidates under e.mu.
func (e *Engine) ReplayRecord(rec *wal.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec.Kind != wal.KindColumns {
		return fmt.Errorf("engine: replay: unknown record kind %d", rec.Kind)
	}
	if err := e.tbl.Replay(rec); err != nil {
		return fmt.Errorf("engine: replay append: %w", err)
	}
	return nil
}

// readColumn resolves a column a query is about to read and consolidates
// the rows appends have staged beside it. Every column of a plan —
// predicate, aggregate, grouping, projection, ordering — is resolved
// through it in the query preamble, under e.mu and before any scan worker
// starts, so workers only ever see a consolidated column, which is safe
// for concurrent reads; a column no query names is never copied.
func (e *Engine) readColumn(name string) (*storage.Column, error) {
	col, err := e.tbl.Column(name)
	if err != nil {
		return nil, err
	}
	col.Consolidate()
	return col, nil
}

// syncSkippers brings every skipper up to date with appended rows. Called
// at the start of each query so bulk appends amortize metadata
// maintenance (Vec consolidates the column: a skipper's column is copied
// once per run of appends, here). A dictionary left open because it was
// empty when skipping was enabled is sealed once it holds values, which
// re-codes the column, so that column's skipper is rebuilt instead.
func (e *Engine) syncSkippers() {
	for name, s := range e.skippers {
		col, err := e.tbl.Column(name)
		if err != nil {
			continue
		}
		if s.Rows() == col.Len() {
			continue
		}
		e.guard(name, func() error {
			if !col.DictSorted() && col.Dict().Len() > 0 {
				return e.buildSkipperLocked(name)
			}
			s.Extend(col.Vec(), col.Nulls())
			return nil
		})
	}
}
