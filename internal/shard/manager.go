// Package shard implements the sharded scatter-gather engine: a Manager
// partitions one logical table into per-core shards, each backed by its
// own engine.Engine with private adaptive zonemap state, and executes
// queries by (1) pruning shards whose observed key bounds cannot
// intersect the predicate — data skipping one level above zones — then
// (2) fanning the query out to the surviving shards on parallel workers
// with cooperative cancellation, and (3) merging what each shard returns,
// its engine.Partial (aggregate states, groups, retained rows with their
// order values), in ascending shard order, then finishing the merged
// partial once. Every shard runs the logical query as written: a partial
// already holds AVG as a sum and a count, an ORDER BY's order values and
// no more than LIMIT rows or groups. Aggregate semantics live in the
// engine alone, so a sharded answer is one engine's answer, with equal
// keys broken by shard number.
//
// Shard pruning is correct independently of routing quality: each shard
// tracks the observed min/max key codes (and NULL-key count) of the rows
// it actually holds, widen-only, so a shard is eliminated only when no
// row in it can satisfy the predicate — exactly the zone-pruning
// argument applied to one giant zone per shard. Routing (range by
// learned equi-depth bounds, or hash) only decides how WELL pruning
// works, never whether results are right.
package shard

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// Mode selects how rows are routed to shards.
type Mode uint8

const (
	// ModeRange routes by learned equi-depth split bounds on the key
	// column: the first sizable batch (or the full data when partitioning
	// an existing table) fixes the bounds, and range predicates on the
	// key then prune most shards. The default.
	ModeRange Mode = iota
	// ModeHash routes by a multiplicative hash of the key code: uniform
	// placement, parallel appends, but range predicates touch all shards
	// (point predicates still prune via observed bounds when lucky).
	ModeHash
)

// String names the mode ("range", "hash").
func (m Mode) String() string {
	switch m {
	case ModeRange:
		return "range"
	case ModeHash:
		return "hash"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode parses "range" or "hash".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "range":
		return ModeRange, nil
	case "hash":
		return ModeHash, nil
	}
	return 0, fmt.Errorf("shard: unknown mode %q (want range or hash)", s)
}

// learnRowsPerShard is the minimum batch size (rows per shard) before
// range bounds are learned from a batch; smaller batches round-robin
// until a sizable one arrives.
const learnRowsPerShard = 8

// Options configures a Manager.
type Options struct {
	// Shards is the shard count; must be >= 2 (a 1-shard table is a
	// plain engine — use that directly).
	Shards int
	// Key names the shard key column. It must be an Int64 or Float64
	// column (string dictionary codes are not comparable across shards).
	// "" picks the first numeric column of the schema.
	Key string
	// Mode is the routing mode (default ModeRange).
	Mode Mode
	// Engine is the per-shard engine configuration. The Manager stamps
	// Shard 1..Shards and shares its metrics registry with every shard.
	// Neither the Manager nor its shards admit, attribute or retain
	// queries: the adskip facade does that once per logical query, and
	// the merged trace each result carries is the one it retains.
	Engine engine.Options
}

// shardState is one shard: its engine plus the observed key bounds used
// for pruning. Bounds only widen, and are widened BEFORE rows are
// applied, so pruning can never eliminate a shard holding a matching row.
type shardState struct {
	id  int // 1-based
	eng *engine.Engine

	mu       sync.Mutex
	observed keyStats // of every row applied to the shard

	mRows *obs.Gauge
}

// keyStats is the key bounds of a set of rows: the hull of their non-NULL
// key codes and their NULL-key count. noKeys is the stats of no row.
type keyStats struct {
	keys  expr.Hull
	nulls int64
}

var noKeys = keyStats{keys: expr.EmptyHull}

// widen folds a group's observed key stats into the shard's bounds.
func (s *shardState) widen(k keyStats) {
	s.mu.Lock()
	s.observed = keyStats{s.observed.keys.Union(k.keys), s.observed.nulls + k.nulls}
	s.mu.Unlock()
}

// Manager is a sharded table: a fixed set of per-shard engines behind
// the same query surface as one engine (it implements sql.Executor).
// All methods are safe for concurrent use; appends to distinct shards
// and queries against distinct shards proceed in parallel.
type Manager struct {
	name   string
	proto  *table.Table // schema-only prototype for planning
	shards []*shardState
	key    string
	keyIdx int
	mode   Mode
	reg    *obs.Registry

	// Range routing state: nil bounds means not yet learned (round-robin
	// fallback via rr). bounds[i] is the inclusive upper key code of
	// shard i+1; the last shard takes the rest.
	routeMu sync.Mutex
	bounds  []int64
	rr      int
	// batches recycles AppendRows' staged batches (*table.Staged), and
	// lists route's buffer (*[]int32: the per-shard row lists), across
	// batches and concurrent appenders.
	batches, lists sync.Pool

	mPruned  *obs.Counter
	mScanned *obs.Counter
	mQueries *obs.Counter
	// mLatency is the LOGICAL query latency (planning to merged result),
	// registered under the same identity an unsharded table would use.
	// The per-shard engines record their own scan latencies under
	// shard="N" labels; mixing those into latency quantiles would count
	// one query N times at per-shard durations.
	mLatency *obs.Histogram
}

// New creates an empty sharded table with the given schema.
func New(name string, schema table.Schema, opts Options) (*Manager, error) {
	if opts.Shards < 2 {
		return nil, fmt.Errorf("shard: %d shards (need >= 2; use a plain engine for 1)", opts.Shards)
	}
	proto, err := table.New(name, schema)
	if err != nil {
		return nil, err
	}
	numeric := func(cs table.ColumnSpec) bool { return cs.Type == storage.Int64 || cs.Type == storage.Float64 }
	keyIdx := slices.IndexFunc(schema, func(cs table.ColumnSpec) bool { return cs.Name == opts.Key || opts.Key == "" && numeric(cs) })
	switch {
	case keyIdx < 0 && opts.Key == "":
		return nil, fmt.Errorf("shard: table %q has no numeric column to shard on", name)
	case keyIdx < 0:
		return nil, fmt.Errorf("shard: key column %q not in schema of %q", opts.Key, name)
	case !numeric(schema[keyIdx]):
		return nil, fmt.Errorf("shard: key column %q is %s (need BIGINT or DOUBLE)", opts.Key, schema[keyIdx].Type)
	}
	opts.Key = schema[keyIdx].Name

	m := &Manager{
		name:   name,
		proto:  proto,
		key:    opts.Key,
		keyIdx: keyIdx,
		mode:   opts.Mode,
	}
	m.reg = opts.Engine.Metrics
	if m.reg == nil {
		m.reg = obs.NewRegistry()
	}
	tl := obs.L("table", name)
	m.mPruned = m.reg.Counter("adskip_shard_pruned_total",
		"Shards eliminated by key-bound pruning before any zone metadata was consulted.", tl)
	m.mScanned = m.reg.Counter("adskip_shard_scanned_total",
		"Shard scans completed by the scatter-gather executor.", tl)
	m.mQueries = m.reg.Counter("adskip_shard_queries_total",
		"Logical queries executed through the scatter-gather executor.", tl)
	m.mLatency = m.reg.Histogram("adskip_query_seconds",
		"Query wall-clock latency.", obs.LatencyBuckets(), tl)
	m.reg.Gauge("adskip_shard_count",
		"Number of shards the table is partitioned into.", tl).Set(int64(opts.Shards))

	for i := 0; i < opts.Shards; i++ {
		stbl, err := table.New(name, schema)
		if err != nil {
			return nil, err
		}
		eo := opts.Engine
		eo.Shard = i + 1
		eo.Metrics = m.reg
		s := &shardState{id: i + 1, eng: engine.New(stbl, eo), observed: noKeys}
		s.mRows = m.reg.Gauge("adskip_shard_rows",
			"Rows currently held by this shard.", tl, obs.L("shard", strconv.Itoa(s.id)))
		m.shards = append(m.shards, s)
	}
	return m, nil
}

// NewFromTable partitions an existing table's rows across shards. Range
// mode learns equi-depth bounds from the full key column up front, so
// the placement (and therefore pruning) is as good as it gets. Row order
// changes: rows are grouped by shard (a later merged snapshot writes
// them back in shard order). tbl is the caller's alone — no engine serves
// it — so reading it here (Vec, Rows: both consolidate what its loader
// staged) needs no lock. The rows are appended table.BulkRows at a time,
// so only one chunk's values are ever materialized; with the bounds known
// up front, every row lands where one batch of the whole table would put
// it.
func NewFromTable(tbl *table.Table, opts Options) (*Manager, error) {
	m, err := New(tbl.Name(), tbl.Schema(), opts)
	if err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if m.mode == ModeRange && n > 0 {
		key, err := tbl.Column(m.key)
		if err != nil {
			return nil, err
		}
		keys := key.Vec()
		codes := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			if !key.IsNull(i) {
				codes = append(codes, keys.At(i))
			}
		}
		if len(codes) > 0 {
			m.bounds = equidepthBounds(codes, opts.Shards)
		}
	}
	for lo := 0; lo < n; lo += table.BulkRows {
		rows, err := tbl.Rows(lo, min(lo+table.BulkRows, n))
		if err != nil {
			return nil, err
		}
		// Keys all NULL leave a range table without bounds, so each
		// append round-robins whole: every chunk goes where the first
		// would, as one batch of the table would.
		m.rr = 0
		if err := m.AppendRows(rows); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Table returns the schema prototype (no data; per-shard engines hold
// the rows). The SQL planner binds against it.
func (m *Manager) Table() *table.Table { return m.proto }

// NumRows is the logical row count: the sum over shards. Each shard is
// read under its engine mutex, so the sum is safe against concurrent
// appends (though appends landing mid-sum may or may not be counted).
func (m *Manager) NumRows() int {
	n := 0
	for _, s := range m.shards {
		n += s.eng.NumRows()
	}
	return n
}

// Shards returns the shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// Key returns the shard key column name.
func (m *Manager) Key() string { return m.key }

// Mode returns the routing mode.
func (m *Manager) Mode() Mode { return m.mode }

// ShardEngine returns the 1-based shard's engine (nil when out of
// range). Exposed for tests and per-shard introspection.
func (m *Manager) ShardEngine(id int) *engine.Engine {
	if id < 1 || id > len(m.shards) {
		return nil
	}
	return m.shards[id-1].eng
}

// equidepthBounds computes shards-1 inclusive upper bounds dividing the
// observed codes into (approximately) equal-count runs: bound i is the code
// a sort would put at rank (i+1)*len(codes)/shards. It reorders codes in
// place, selecting each bound among the codes above the one before rather
// than sorting them all.
func equidepthBounds(codes []int64, shards int) []int64 {
	bounds := make([]int64, shards-1)
	lo := 0
	for i := range bounds {
		k := (i + 1) * len(codes) / shards // below len(codes): i+1 < shards
		nthElement(codes[lo:], k-lo)
		bounds[i], lo = codes[k], k
	}
	return bounds
}

// nthElement reorders s so that s[k] is the code a sort would put there,
// with none greater before it and none less after it: quickselect over a
// three-way partition (runs of equal codes end it early), sorting a slice
// that is short or resists partitioning.
func nthElement(s []int64, k int) {
	for depth := 2 * bits.Len(uint(len(s))); len(s) > 16 && depth > 0; depth-- {
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		p := max(min(a, b), min(max(a, b), c)) // the median of three
		lt, i, gt := 0, 0, len(s)
		for i < gt {
			switch v := s[i]; {
			case v < p:
				s[lt], s[i] = v, s[lt]
				lt, i = lt+1, i+1
			case v > p:
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			s = s[:lt]
		case k >= gt:
			s, k = s[gt:], k-gt
		default:
			return // s[k] == p
		}
	}
	slices.Sort(s)
}

// hashCode is a multiplicative (Fibonacci) hash of a key code.
func hashCode(code int64) uint64 {
	return uint64(code) * 0x9E3779B97F4A7C15
}

// routing is where a batch's rows go: each shard's rows as ascending batch
// row indexes, and the key stats its bounds must absorb before they are
// applied. The lists are cut from one pooled buffer of int32s, room for
// the whole batch per shard.
type routing struct {
	buf   *[]int32
	rows  [][]int32
	stats []keyStats
}

// route places a staged batch by its key column's codes in one pass: each
// row's shard is picked (hash, learned bounds, or the one shard a
// round-robin batch goes to whole; a NULL key goes to the first shard),
// the row's index appended to that shard's list — each list has room for
// the whole batch, cut from one pooled buffer — and its key folded into
// the shard's key stats. In range mode before
// bounds are learned, a batch carrying at least shards*learnRowsPerShard
// rows fixes the bounds (equi-depth over its non-NULL keys — the one batch
// in a Manager's life whose keys are read twice); smaller early batches
// round-robin whole to one shard, which pruning tolerates because it
// consults observed bounds, not placement intent. The caller returns
// r.buf to m.lists.
func (m *Manager) route(src table.Staged) routing {
	codes, nulls := src.Col(m.keyIdx).Codes()
	n, ns := codes.Len(), len(m.shards)

	m.routeMu.Lock()
	bounds := m.bounds
	whole := -1 // round-robin fallback: the shard taking the whole batch
	if m.mode == ModeRange && bounds == nil {
		if n >= ns*learnRowsPerShard && len(nulls) < n {
			keys := make([]int64, 0, n-len(nulls))
			for i, rest := 0, nulls; i < n; i++ {
				if len(rest) > 0 && rest[0] == i {
					rest = rest[1:]
					continue
				}
				keys = append(keys, codes.At(i))
			}
			m.bounds = equidepthBounds(keys, ns)
			bounds = m.bounds
		}
		if bounds == nil {
			whole = m.rr % ns
			m.rr++
		}
	}
	m.routeMu.Unlock()

	buf, _ := m.lists.Get().(*[]int32)
	if buf == nil {
		buf = new([]int32)
	}
	*buf = slices.Grow((*buf)[:0], ns*n)[:ns*n]
	r := routing{buf: buf, rows: make([][]int32, ns), stats: make([]keyStats, ns)}
	for si := range r.rows {
		r.rows[si] = (*buf)[si*n : si*n : (si+1)*n]
		r.stats[si] = noKeys
	}
	if codes.W != nil {
		pickShards(r.rows, r.stats, codes.W, nulls, m.mode, bounds, whole)
	} else {
		pickShards(r.rows, r.stats, codes.N, nulls, m.mode, bounds, whole)
	}
	return r
}

// pickShards is route's pass over the key codes: each row's index is
// appended to its shard's list and its key folded into the shard's stats.
// nulls are the NULL rows, ascending; the runs of keys between them are
// picked by pickRun.
func pickShards[T storage.Code](rows [][]int32, stats []keyStats, codes []T, nulls []int, mode Mode, bounds []int64, whole int) {
	nullShard := max(whole, 0)
	at := 0
	for _, row := range nulls {
		pickRun(rows, stats, codes[at:row], at, mode, bounds, whole)
		rows[nullShard] = append(rows[nullShard], int32(row))
		stats[nullShard].nulls++
		at = row + 1
	}
	pickRun(rows, stats, codes[at:], at, mode, bounds, whole)
}

// pickRun picks the shards of a run of non-NULL keys, batch rows first..,
// one loop per way of picking. A shard's list has room for the batch.
func pickRun[T storage.Code](rows [][]int32, stats []keyStats, codes []T, first int, mode Mode, bounds []int64, whole int) {
	switch {
	case whole >= 0:
		h := &stats[whole].keys
		for i, c := range codes {
			rows[whole] = append(rows[whole], int32(first+i))
			h.Min, h.Max = min(h.Min, int64(c)), max(h.Max, int64(c))
		}
	case mode == ModeHash:
		ns := uint64(len(rows))
		for i, c := range codes {
			si := int(hashCode(int64(c)) % ns)
			rows[si] = append(rows[si], int32(first+i))
			h := &stats[si].keys
			h.Min, h.Max = min(h.Min, int64(c)), max(h.Max, int64(c))
		}
	default:
		for i, c := range codes {
			// The first bound at or above the key; past them all, the
			// last shard.
			code := int64(c)
			lo, hi := 0, len(bounds)
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); bounds[mid] < code {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			rows[lo] = append(rows[lo], int32(first+i))
			h := &stats[lo].keys
			h.Min, h.Max = min(h.Min, code), max(h.Max, code)
		}
	}
}

// AppendRow appends one row (routed to its shard).
func (m *Manager) AppendRow(vals ...storage.Value) error {
	return m.AppendRows([][]storage.Value{vals})
}

// AppendRows appends a batch across the shards, all or nothing, as one
// engine appends it. The batch is staged once, against the schema, on the
// path an unsharded append takes — which refuses what a table refuses
// (arity, type, NaN) before any shard is touched — and routed on its key
// codes; each shard then gathers its rows' codes from it
// (engine.Gather). A string a shard's sealed dictionary lacks refuses the
// batch there, before any shard commits, and the error names the batch
// row. Observed key bounds widen after every shard has staged and BEFORE
// any row is applied: an over-wide bound only costs pruning opportunity,
// while a late one would cost correctness. With a WAL armed each shard
// logs its own record, and the call returns only when every record is
// durable, so one group commit can absorb them all.
func (m *Manager) AppendRows(rows [][]storage.Value) error {
	if len(rows) == 0 {
		return nil
	}
	reuse, _ := m.batches.Get().(*table.Staged)
	if reuse == nil {
		reuse = new(table.Staged)
	}
	src, err := m.proto.StageApart(rows, *reuse)
	if err != nil {
		return err
	}
	*reuse = src
	defer m.batches.Put(reuse)
	r := m.route(src)
	defer m.lists.Put(r.buf)

	var targets []*shardState
	var engines []*engine.Engine
	var lists [][]int32
	for si, list := range r.rows {
		if len(list) > 0 {
			targets = append(targets, m.shards[si])
			engines = append(engines, m.shards[si].eng)
			lists = append(lists, list)
		}
	}
	g, err := engine.Gather(engines, src, lists)
	if err != nil {
		return err
	}
	for _, s := range targets {
		s.widen(r.stats[s.id-1])
	}
	commits, err := g.Commit()
	if err != nil {
		return err
	}
	// Every shard's rows are logged and applied; wait for durability
	// together so one fsync can absorb every shard's record.
	for i, s := range targets {
		if err := commits[i].Wait(); err != nil {
			return err
		}
		s.mRows.Set(int64(s.eng.NumRows()))
	}
	return nil
}

// SetWAL arms every shard engine with the same log; each shard stamps
// its shard number into the records it writes, so recovery can route
// them back (see ReplayRecord).
func (m *Manager) SetWAL(l *wal.Log) {
	for _, s := range m.shards {
		s.eng.SetWAL(l)
	}
}

// ReplayRecord routes a recovered WAL record to the shard that logged
// it. Records with no shard number were written unsharded; records with
// a shard number beyond the current count were written at a different
// shard count — both are configuration mismatches, not data corruption,
// so the error says how to reopen.
func (m *Manager) ReplayRecord(rec *wal.Record) error {
	if rec.Shard == 0 {
		return fmt.Errorf("shard: WAL record for table %q carries no shard number (log written unsharded; reopen with Shards=1)", rec.Table)
	}
	if int(rec.Shard) > len(m.shards) {
		return fmt.Errorf("shard: WAL record for table %q routed to shard %d but only %d shards exist (reopen with the shard count the log was written at)",
			rec.Table, rec.Shard, len(m.shards))
	}
	s := m.shards[rec.Shard-1]
	// Widen observed bounds from the replayed rows before applying,
	// mirroring the live append path (replay is idempotent; widening twice
	// is harmless).
	k := noKeys
	if rec.Kind == wal.KindColumns {
		if m.keyIdx >= len(rec.Blocks) {
			return fmt.Errorf("shard: WAL record for table %q has %d columns, key column %q is column %d", rec.Table, len(rec.Blocks), m.key, m.keyIdx)
		}
		key := &rec.Blocks[m.keyIdx]
		if key.Type() == storage.String {
			return fmt.Errorf("shard: key column %q got %s value", m.key, key.Type())
		}
		lo, hi, nulls := key.CodeRange()
		k = keyStats{expr.Hull{Min: lo, Max: hi}, int64(nulls)}
	}
	s.widen(k)
	if err := s.eng.ReplayRecord(rec); err != nil {
		return err
	}
	s.mRows.Set(int64(s.eng.NumRows()))
	return nil
}

// Merged materializes the logical table: every shard's rows concatenated
// in shard order. Used by snapshot/CSV export.
func (m *Manager) Merged() (*table.Table, error) {
	out, err := table.New(m.name, m.proto.Schema())
	if err != nil {
		return nil, err
	}
	for _, s := range m.shards {
		// Rows consolidates the shard's columns: under its engine's mutex.
		err := s.eng.ReadTable(func(st *table.Table) error {
			for lo := 0; lo < st.NumRows(); lo += table.BulkRows {
				rows, err := st.Rows(lo, min(lo+table.BulkRows, st.NumRows()))
				if err != nil {
					return err
				}
				if err := out.AppendRows(rows); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadTable runs fn over a merged copy of the table (see Merged): the
// sharded counterpart of engine.Engine.ReadTable.
func (m *Manager) ReadTable(fn func(*table.Table) error) error {
	t, err := m.Merged()
	if err != nil {
		return err
	}
	return fn(t)
}
