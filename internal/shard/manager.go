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
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"adskip/internal/engine"
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

	mu    sync.Mutex
	seen  bool  // any non-NULL key observed
	lo    int64 // observed min key code
	hi    int64 // observed max key code
	nulls int64 // rows observed with a NULL key

	mRows *obs.Gauge
}

// keyStats is what one group of rows adds to a shard's observed key
// bounds: min/max over its non-NULL key codes and its NULL-key count.
type keyStats struct {
	seen   bool
	lo, hi int64
	nulls  int64
}

// add folds one row's key into the stats.
func (k *keyStats) add(code int64, null bool) {
	switch {
	case null:
		k.nulls++
	case !k.seen:
		k.seen, k.lo, k.hi = true, code, code
	case code < k.lo:
		k.lo = code
	case code > k.hi:
		k.hi = code
	}
}

// widen folds a group's observed key stats into the shard's bounds.
func (s *shardState) widen(k keyStats) {
	s.mu.Lock()
	if k.seen {
		if !s.seen {
			s.seen, s.lo, s.hi = true, k.lo, k.hi
		} else {
			s.lo = min(s.lo, k.lo)
			s.hi = max(s.hi, k.hi)
		}
	}
	s.nulls += k.nulls
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
	// picks recycles route's per-row shard indices (*[]int32) across
	// batches and concurrent appenders.
	picks sync.Pool

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
	keyIdx := -1
	if opts.Key == "" {
		for i, cs := range schema {
			if cs.Type == storage.Int64 || cs.Type == storage.Float64 {
				opts.Key = cs.Name
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("shard: table %q has no numeric column to shard on", name)
		}
	} else {
		for i, cs := range schema {
			if cs.Name == opts.Key {
				if cs.Type != storage.Int64 && cs.Type != storage.Float64 {
					return nil, fmt.Errorf("shard: key column %q is %s (need BIGINT or DOUBLE)", opts.Key, cs.Type)
				}
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("shard: key column %q not in schema of %q", opts.Key, name)
		}
	}

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
		s := &shardState{id: i + 1, eng: engine.New(stbl, eo)}
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
// staged) needs no lock.
func NewFromTable(tbl *table.Table, opts Options) (*Manager, error) {
	m, err := New(tbl.Name(), tbl.Schema(), opts)
	if err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if n > 0 {
		if m.mode == ModeRange {
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
		rows, err := tbl.Rows(0, n)
		if err != nil {
			return nil, err
		}
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

// keyCode extracts the routing code of one row: (code, isNull).
func (m *Manager) keyCode(row []storage.Value) (int64, bool, error) {
	if m.keyIdx >= len(row) {
		return 0, false, fmt.Errorf("shard: row arity %d misses key column %q (index %d)", len(row), m.key, m.keyIdx)
	}
	v := row[m.keyIdx]
	if v.IsNull() {
		return 0, true, nil
	}
	switch v.Type() {
	case storage.Int64:
		return v.Int(), false, nil
	case storage.Float64:
		f := v.Float()
		if math.IsNaN(f) {
			return 0, false, fmt.Errorf("shard: NaN key value in column %q", m.key)
		}
		return storage.EncodeFloat64(f), false, nil
	}
	return 0, false, fmt.Errorf("shard: key column %q got %s value", m.key, v.Type())
}

// equidepthBounds computes shards-1 inclusive upper bounds dividing the
// observed codes into (approximately) equal-count runs.
func equidepthBounds(codes []int64, shards int) []int64 {
	sorted := make([]int64, len(codes))
	copy(sorted, codes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	bounds := make([]int64, shards-1)
	for i := 0; i < shards-1; i++ {
		cut := (i + 1) * len(sorted) / shards
		if cut >= len(sorted) {
			cut = len(sorted) - 1
		}
		bounds[i] = sorted[cut]
	}
	return bounds
}

// hashCode is a multiplicative (Fibonacci) hash of a key code.
func hashCode(code int64) uint64 {
	return uint64(code) * 0x9E3779B97F4A7C15
}

// routeShard picks the shard index (0-based) for one key code under the
// given learned bounds (nil = caller handles fallback).
func (m *Manager) routeShard(code int64, null bool, bounds []int64) int {
	n := len(m.shards)
	if null {
		return 0
	}
	if m.mode == ModeHash {
		return int(hashCode(code) % uint64(n))
	}
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= code })
	return i // i == len(bounds) means the last shard
}

// group is the part of a batch routed to one shard, with the key stats
// that shard's bounds must absorb before the rows are applied.
type group struct {
	rows [][]storage.Value
	keyStats
}

// route partitions a batch of rows into per-shard groups, extracting each
// row's key once: the same pass picks the shard, notes the pick in a
// reused buffer, counts it and folds the key into the group's stats; a
// second pass over the picks alone deals the row headers into groups cut,
// exactly sized, from one allocation. In range mode before bounds are
// learned, a batch carrying at least shards*learnRowsPerShard rows fixes
// the bounds (equi-depth over the batch — the one batch in a Manager's life
// whose keys are read twice); smaller early batches round-robin whole to
// one shard, which pruning tolerates because it consults observed bounds,
// not placement intent. A bad key rejects the batch on every path.
func (m *Manager) route(rows [][]storage.Value) ([]group, error) {
	n := len(m.shards)
	groups := make([]group, n)

	m.routeMu.Lock()
	bounds := m.bounds
	whole := -1 // round-robin fallback: the shard taking the whole batch
	if m.mode == ModeRange && bounds == nil {
		if len(rows) >= n*learnRowsPerShard {
			codes := make([]int64, 0, len(rows))
			for _, r := range rows {
				code, null, err := m.keyCode(r)
				if err != nil {
					m.routeMu.Unlock()
					return nil, err
				}
				if !null {
					codes = append(codes, code)
				}
			}
			if len(codes) > 0 {
				m.bounds = equidepthBounds(codes, n)
				bounds = m.bounds
			}
		}
		if bounds == nil {
			whole = m.rr % n
			m.rr++
		}
	}
	m.routeMu.Unlock()

	if whole >= 0 {
		g := &groups[whole]
		for _, r := range rows {
			code, null, err := m.keyCode(r)
			if err != nil {
				return nil, err
			}
			g.add(code, null)
		}
		g.rows = rows
		return groups, nil
	}

	buf, _ := m.picks.Get().(*[]int32)
	if buf == nil {
		buf = new([]int32)
	}
	defer m.picks.Put(buf)
	*buf = slices.Grow((*buf)[:0], len(rows))[:len(rows)]
	pick, counts := *buf, make([]int, n)
	for i, r := range rows {
		code, null, err := m.keyCode(r)
		if err != nil {
			return nil, err
		}
		si := m.routeShard(code, null, bounds)
		pick[i] = int32(si)
		counts[si]++
		groups[si].add(code, null)
	}
	dealt := make([][]storage.Value, len(rows))
	for si, k := range counts {
		groups[si].rows, dealt = dealt[:0:k], dealt[k:]
	}
	for i, si := range pick {
		groups[si].rows = append(groups[si].rows, rows[i])
	}
	return groups, nil
}

// AppendRow appends one row (routed to its shard).
func (m *Manager) AppendRow(vals ...storage.Value) error {
	return m.AppendRows([][]storage.Value{vals})
}

// AppendRows routes a batch to its shards and appends the per-shard
// groups in parallel — each shard engine serializes its own appends, so
// concurrent AppendRows callers writing to different shards no longer
// contend on one table lock. With a WAL armed the per-shard records are
// group-committed and the call returns only when every group is durable.
// Observed key bounds widen BEFORE any row is applied: an over-wide
// bound only costs pruning opportunity, while a late one would cost
// correctness.
func (m *Manager) AppendRows(rows [][]storage.Value) error {
	if len(rows) == 0 {
		return nil
	}
	groups, err := m.route(rows)
	if err != nil {
		return err
	}

	type part struct {
		s    *shardState
		rows [][]storage.Value
	}
	var parts []part
	for si, g := range groups {
		if len(g.rows) == 0 {
			continue
		}
		s := m.shards[si]
		s.widen(g.keyStats)
		parts = append(parts, part{s: s, rows: g.rows})
	}

	commits := make([]wal.Commit, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			commits[i], errs[i] = parts[i].s.eng.AppendRowsAsync(parts[i].rows)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// All groups logged and applied; wait for durability together so one
	// fsync can absorb every shard's record.
	for i := range parts {
		if err := commits[i].Wait(); err != nil {
			return err
		}
		parts[i].s.mRows.Set(int64(parts[i].s.eng.NumRows()))
	}
	return nil
}

// Update is unsupported on sharded tables: the global-row-to-shard
// mapping depends on append interleaving and is not stable across
// restarts, so a global row index cannot be routed reliably.
func (m *Manager) Update(colName string, row int, v storage.Value) error {
	return fmt.Errorf("shard: UPDATE by global row index is unsupported on sharded tables (query by key and rewrite instead)")
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
	var k keyStats
	switch rec.Kind {
	case wal.KindColumns:
		if m.keyIdx >= len(rec.Blocks) {
			return fmt.Errorf("shard: WAL record for table %q has %d columns, key column %q is column %d", rec.Table, len(rec.Blocks), m.key, m.keyIdx)
		}
		key := &rec.Blocks[m.keyIdx]
		if key.Type() == storage.String {
			return fmt.Errorf("shard: key column %q got %s value", m.key, key.Type())
		}
		lo, hi, nulls := key.CodeRange()
		k = keyStats{seen: nulls < key.Len(), lo: lo, hi: hi, nulls: int64(nulls)}
	case wal.KindRows:
		for _, r := range rec.Rows {
			code, null, err := m.keyCode(r)
			if err != nil {
				return err
			}
			k.add(code, null)
		}
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
