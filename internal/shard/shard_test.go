package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func testSchema() table.Schema {
	return table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "city", Type: storage.String},
	}
}

// testRows generates a deterministic mixed dataset: sequential-ish ids,
// clustered prices, a few cities, and NULLs sprinkled into every column.
func testRows(n int) [][]storage.Value {
	rng := rand.New(rand.NewSource(42))
	cities := []string{"oslo", "bergen", "tromso", "trondheim"}
	rows := make([][]storage.Value, 0, n)
	for i := 0; i < n; i++ {
		id := storage.IntValue(int64(i))
		if rng.Intn(37) == 0 {
			id = storage.NullValue(storage.Int64)
		}
		price := storage.FloatValue(float64(rng.Intn(1000)) / 10)
		if rng.Intn(23) == 0 {
			price = storage.NullValue(storage.Float64)
		}
		city := storage.StringValue(cities[rng.Intn(len(cities))])
		if rng.Intn(41) == 0 {
			city = storage.NullValue(storage.String)
		}
		rows = append(rows, []storage.Value{id, price, city})
	}
	return rows
}

// newManager builds an adaptive Manager sharded on "id" over rows, with
// skipping enabled on "id" and "price". Two built from the same
// rows are twins: the same query history leaves them the same.
func newManager(t *testing.T, mode Mode, shards int, rows [][]storage.Value) *Manager {
	t.Helper()
	m, err := New("sales", testSchema(), Options{
		Shards: shards,
		Key:    "id",
		Mode:   mode,
		Engine: engine.Options{Policy: engine.PolicyAdaptive},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableSkipping("id", "price"); err != nil {
		t.Fatal(err)
	}
	return m
}

// renderRow formats a row for comparison, Float64 cells to 6
// significant digits.
func renderRow(row []storage.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		switch {
		case v.IsNull():
			parts[i] = "NULL"
		case v.Type() == storage.Float64:
			parts[i] = fmt.Sprintf("%.6g", v.Float())
		default:
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "|")
}

func renderRows(rows [][]storage.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = renderRow(r)
	}
	return out
}

// everyAgg is one of each aggregate over each column type it accepts.
var everyAgg = []engine.Agg{
	{Kind: engine.CountStar}, {Kind: engine.CountCol, Col: "city"},
	{Kind: engine.Sum, Col: "id"}, {Kind: engine.Sum, Col: "price"},
	{Kind: engine.Min, Col: "id"}, {Kind: engine.Max, Col: "price"},
	{Kind: engine.Min, Col: "city"}, {Kind: engine.Max, Col: "city"},
	{Kind: engine.Avg, Col: "id"}, {Kind: engine.Avg, Col: "price"},
}

// TestShardedMatchesUnshardedFromTable covers the NewFromTable path: each
// shard holds the source rows routed to it, in source order, as when the
// whole table was one batch — NULL keys in the first shard, the others by
// hash or by the equi-depth bounds of the whole key column — at 2, 3 and
// 4 shards over rows appended one at a time, and at 3 over a source of
// more than three table.BulkRows chunks.
func TestShardedMatchesUnshardedFromTable(t *testing.T) {
	for _, mode := range []Mode{ModeRange, ModeHash} {
		for _, tc := range []struct {
			name                string
			shards, rows, batch int
		}{{"2", 2, 600, 1}, {"3", 3, 600, 1}, {"4", 4, 600, 1}, {"chunks", 3, 3*table.BulkRows + 1000, 3*table.BulkRows + 1000}} {
			t.Run(fmt.Sprintf("%v/%s", mode, tc.name), func(t *testing.T) {
				rows, shards := testRows(tc.rows), tc.shards
				src := table.MustNew("sales", testSchema())
				for lo := 0; lo < len(rows); lo += tc.batch {
					if err := src.AppendRows(rows[lo:min(lo+tc.batch, len(rows))]); err != nil {
						t.Fatal(err)
					}
				}
				if got := src.ColumnAt(0).Staged(); got != len(rows) {
					t.Fatalf("source table has %d of %d rows staged: NewFromTable must be its first reader", got, len(rows))
				}
				m, err := NewFromTable(src, Options{Shards: shards, Key: "id", Mode: mode,
					Engine: engine.Options{Policy: engine.PolicyNone}})
				if err != nil {
					t.Fatal(err)
				}
				var keys []int64
				for _, r := range rows {
					if !r[0].IsNull() {
						keys = append(keys, r[0].Int())
					}
				}
				bounds := equidepthBounds(keys, shards)
				want := make([][]string, shards)
				for _, r := range rows {
					si := 0
					switch {
					case r[0].IsNull():
					case mode == ModeHash:
						si = int(hashCode(r[0].Int()) % uint64(shards))
					default:
						for si < len(bounds) && bounds[si] < r[0].Int() {
							si++
						}
					}
					want[si] = append(want[si], renderRow(r))
				}
				for si := range want {
					err := m.ShardEngine(si + 1).ReadTable(func(got *table.Table) error {
						held, err := got.Rows(0, got.NumRows())
						if err != nil {
							return err
						}
						if g := renderRows(held); !slices.Equal(g, want[si]) {
							return fmt.Errorf("%d rows, want the %d routed to it in source order", len(g), len(want[si]))
						}
						return nil
					})
					if err != nil {
						t.Errorf("shard %d: %v", si+1, err)
					}
				}
			})
		}
	}
}

// TestShardPruning checks that range partitioning actually eliminates
// shards on key-range predicates and keeps the scanned+pruned invariant.
func TestShardPruning(t *testing.T) {
	m := newManager(t, ModeRange, 4, testRows(1000))
	res, err := m.Query(engine.Query{Where: expr.And(
		expr.MustPred("id", expr.Between, storage.IntValue(0), storage.IntValue(120)))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsPruned == 0 {
		t.Error("range predicate on the shard key pruned no shards")
	}
	if res.Stats.ShardsScanned+res.Stats.ShardsPruned != m.Shards() {
		t.Errorf("scanned %d + pruned %d != %d shards",
			res.Stats.ShardsScanned, res.Stats.ShardsPruned, m.Shards())
	}
	if res.Trace == nil || res.Trace.ShardsPruned != res.Stats.ShardsPruned {
		t.Error("trace shard-prune totals missing or inconsistent with stats")
	}

	// Unsatisfiable predicate: every shard prunable, one kept for the
	// correct empty-result shape.
	res, err = m.Query(engine.Query{Where: expr.And(
		expr.MustPred("id", expr.GT, storage.IntValue(1<<40)))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsScanned != 1 || res.Stats.ShardsPruned != m.Shards()-1 {
		t.Errorf("unsat: scanned %d pruned %d, want 1 and %d",
			res.Stats.ShardsScanned, res.Stats.ShardsPruned, m.Shards()-1)
	}
	if res.Count != 0 {
		t.Errorf("unsat: Count = %d, want 0", res.Count)
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := New("t", testSchema(), Options{Shards: 1}); err == nil {
		t.Error("Shards=1 accepted; want error")
	}
	if _, err := New("t", testSchema(), Options{Shards: 2, Key: "city"}); err == nil {
		t.Error("string shard key accepted; want error")
	}
	if _, err := New("t", testSchema(), Options{Shards: 2, Key: "nope"}); err == nil {
		t.Error("unknown shard key accepted; want error")
	}
	// Default key resolution picks the first numeric column.
	m, err := New("t", testSchema(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Key() != "id" {
		t.Errorf("default key = %q, want id", m.Key())
	}
}

func TestExplainShowsShardPrune(t *testing.T) {
	m := newManager(t, ModeRange, 4, testRows(1000))
	lines, err := m.Explain(engine.Query{Where: expr.And(
		expr.MustPred("id", expr.LT, storage.IntValue(100)))})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "shard prune:") {
		t.Errorf("EXPLAIN missing shard-prune line:\n%s", joined)
	}
	if !strings.Contains(joined, "range partitioning") {
		t.Errorf("EXPLAIN missing partitioning summary:\n%s", joined)
	}
}

// TestShardEnginesRetainNoTraces: the merged trace is the one record of a
// sharded query. Each logical query returns one fresh merged trace naming
// the shards it scanned, and neither the Manager nor a shard engine holds
// a trace ring to keep its traces in: retaining a query's trace, once, is
// the caller's duty.
func TestShardEnginesRetainNoTraces(t *testing.T) {
	m, err := New("sales", testSchema(), Options{Shards: 2, Key: "id",
		Engine: engine.Options{Policy: engine.PolicyAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRows(testRows(1000)); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableSkipping("id"); err != nil {
		t.Fatal(err)
	}
	seen := map[*obs.QueryTrace]bool{}
	for i := 1; i <= 5; i++ {
		res, err := m.Query(engine.Query{Where: expr.And(
			expr.MustPred("id", expr.LT, storage.IntValue(int64(150*i))))})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if tr == nil || seen[tr] {
			t.Fatalf("query %d: trace %p is missing or reused", i, tr)
		}
		seen[tr] = true
		if tr.Table != "sales" || len(tr.Shards) != tr.ShardsScanned || tr.ShardsScanned+tr.ShardsPruned != 2 {
			t.Fatalf("query %d: merged trace table %q shards %v (%d scanned, %d pruned)",
				i, tr.Table, tr.Shards, tr.ShardsScanned, tr.ShardsPruned)
		}
	}
	// The engine's fields are unexported; reflection reads their types
	// without widening the engine's API.
	ring := reflect.TypeOf((*obs.TraceRing)(nil))
	for _, v := range []any{m, m.shards[0], m.shards[0].eng} {
		st := reflect.TypeOf(v).Elem()
		for i := 0; i < st.NumField(); i++ {
			if f := st.Field(i); f.Type == ring {
				t.Errorf("%s.%s retains traces", st.Name(), f.Name)
			}
		}
	}
}

func TestExplainAnalyzeShardPhase(t *testing.T) {
	m := newManager(t, ModeRange, 4, testRows(1000))
	lines, res, err := m.ExplainAnalyze(engine.Query{Where: expr.And(
		expr.MustPred("id", expr.LT, storage.IntValue(100)))})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Trace == nil {
		t.Fatal("no trace on EXPLAIN ANALYZE result")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "shardprune") {
		t.Errorf("EXPLAIN ANALYZE missing shardprune phase:\n%s", joined)
	}
}

// TestMergedRoundTrip checks that Merged reads the rows appends staged on
// the shards and hands them over staged; that the merged table holds
// every row in some order is the torture oracle's to check, through a
// sharded table's snapshot.
func TestMergedRoundTrip(t *testing.T) {
	rows := testRows(300)
	m, err := New("sales", testSchema(), Options{Shards: 3,
		Engine: engine.Options{Policy: engine.PolicyStatic}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	// Nothing has queried the shards: Merged is the first reader of rows
	// AppendRows staged, and hands back a table nobody has read either.
	held := m.ShardEngine(1).Table().ColumnAt(0)
	if held.Staged() != held.Len() || held.Len() == 0 {
		t.Fatalf("shard 1 holds %d rows, %d staged, before Merged", held.Len(), held.Staged())
	}
	merged, err := m.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if held.Staged() != 0 || merged.ColumnAt(0).Staged() != len(rows) {
		t.Fatalf("after Merged: shard 1 has %d rows staged, the merged table %d of %d", held.Staged(), merged.ColumnAt(0).Staged(), len(rows))
	}
}

// TestObservedBoundsMatchHeldRows: routing folds each row's key into its
// group's bounds in the same pass that picks the shard. After mixed
// appends — a round-robin batch before the bounds are learned, the batch
// that learns them, single rows, NULL keys — every shard's observed
// min/max/NULL count must equal a brute-force pass over the rows it holds.
func TestObservedBoundsMatchHeldRows(t *testing.T) {
	for _, mode := range []Mode{ModeRange, ModeHash} {
		for _, key := range []string{"id", "price"} {
			t.Run(mode.String()+"/"+key, func(t *testing.T) {
				m, err := New("t", testSchema(), Options{Shards: 3, Key: key, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				rows := testRows(3000)
				rng := rand.New(rand.NewSource(11))
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				for lo, n := 0, 5; lo < len(rows); lo, n = lo+n, 1+rng.Intn(400) {
					if err := m.AppendRows(rows[lo:min(lo+n, len(rows))]); err != nil {
						t.Fatal(err)
					}
				}
				if m.NumRows() != len(rows) {
					t.Fatalf("manager holds %d rows, want %d", m.NumRows(), len(rows))
				}
				for _, s := range m.shards {
					col, err := s.eng.Table().Column(key)
					if err != nil {
						t.Fatal(err)
					}
					lo, hi, nulls := int64(math.MaxInt64), int64(math.MinInt64), int64(0)
					for i := 0; i < col.Len(); i++ {
						if col.IsNull(i) {
							nulls++
							continue
						}
						lo, hi = min(lo, col.Vec().At(i)), max(hi, col.Vec().At(i))
					}
					if want := (keyStats{expr.Hull{Min: lo, Max: hi}, nulls}); s.observed != want {
						t.Errorf("shard %d: observed %+v; rows held give %+v", s.id, s.observed, want)
					}
				}
			})
		}
	}
}

// TestBytesScannedFollowsCodeWidth: the merged result charges the rows its
// shards scanned at the filtered column's code width — 4 bytes on the
// Int64 key, whose values fit 32 bits, 8 on the Float64 price.
func TestBytesScannedFollowsCodeWidth(t *testing.T) {
	m, err := New("sales", testSchema(), Options{
		Shards: 2, Key: "id", Mode: ModeHash,
		Engine: engine.Options{Policy: engine.PolicyNone},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRows(testRows(1000)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		pred  expr.Pred
		width int
	}{
		{"id range", expr.MustPred("id", expr.Between, storage.IntValue(100), storage.IntValue(300)), 4},
		{"price range", expr.MustPred("price", expr.Between, storage.FloatValue(10), storage.FloatValue(20)), 8},
	} {
		res, err := m.Query(engine.Query{Where: expr.And(tc.pred), Aggs: []engine.Agg{{Kind: engine.CountStar}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RowsScanned != 1000 || res.Stats.BytesScanned != res.Stats.RowsScanned*tc.width {
			t.Errorf("%s: %d bytes scanned for %d rows read, want 1000 rows at %d bytes", tc.name, res.Stats.BytesScanned, res.Stats.RowsScanned, tc.width)
		}
	}
}

// TestProjectionAggregatesSeeEveryMatch: beside an unordered projection
// with a LIMIT, aggregates still fold every match, on one engine as on
// shards; the LIMIT cuts only the rows.
func TestProjectionAggregatesSeeEveryMatch(t *testing.T) {
	schema := table.Schema{{Name: "v", Type: storage.Int64}}
	rows := make([][]storage.Value, 2000)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i))}
	}
	e := engine.New(table.MustNew("t", schema), engine.Options{})
	if err := e.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	m, err := New("t", schema, Options{Shards: 2, Key: "v", Mode: ModeHash})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Where: expr.And(expr.MustPred("v", expr.Between, storage.IntValue(100), storage.IntValue(1500))),
		Select: []string{"v"}, Aggs: []engine.Agg{{Kind: engine.CountStar}, {Kind: engine.Sum, Col: "v"}}, Limit: 5}
	want := []storage.Value{storage.IntValue(1401), storage.IntValue(1120800)}
	for name, db := range map[string]interface {
		Query(engine.Query) (*engine.Result, error)
	}{"one engine": e, "2 shards": m} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Aggs) != fmt.Sprint(want) || len(res.Rows) != 5 {
			t.Errorf("%s: aggregates %v over %d rows, want %v over 5", name, res.Aggs, len(res.Rows), want)
		}
	}
}
