package adskip

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/sql"
)

// TestWorkloadThroughFacade: queries executed through the public API are
// fingerprinted and aggregated per template — parameterized variants of
// the same shape collapse into one row, distinct shapes stay apart.
func TestWorkloadThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)

	// Three literal variants of one template, plus one distinct shape.
	for _, q := range []string{
		"SELECT COUNT(*) FROM sales WHERE price < 16",
		"select count(*) from sales where price < 50",
		"SELECT  COUNT(*)  FROM sales WHERE price < 8.5",
		"SELECT COUNT(*) FROM sales WHERE city = 'oslo'",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	snap := db.Workload(SortCalls, 0)
	if snap.TotalTemplates != 2 {
		t.Fatalf("templates = %d, want 2 (variants must collapse):\n%+v", snap.TotalTemplates, snap)
	}
	if snap.Recorded != 4 {
		t.Fatalf("recorded calls = %d, want 4", snap.Recorded)
	}
	top := snap.Templates[0]
	if top.Fingerprint != "SELECT COUNT(*) FROM sales WHERE price < ?" || top.Calls != 3 {
		t.Fatalf("top template = %q with %d calls, want the price template with 3", top.Fingerprint, top.Calls)
	}
	if top.Table != "sales" {
		t.Fatalf("template table = %q, want sales", top.Table)
	}
	if top.RowsReturned != 3+4+1 { // matches per variant: <16, <50, <8.5
		t.Fatalf("rows returned = %d, want 8", top.RowsReturned)
	}
	if top.TotalSeconds <= 0 || top.MeanUS <= 0 {
		t.Fatalf("latency not aggregated: %+v", top)
	}

	// Single-template lookup mirrors the facade snapshot.
	one, ok := db.stats.Template(top.Fingerprint)
	if !ok || one.Calls != 3 {
		t.Fatalf("Template lookup: ok=%v calls=%d", ok, one.Calls)
	}

	// The stats metrics registered on the DB registry.
	var prom strings.Builder
	if err := db.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adskip_stats_templates 2", "adskip_stats_recorded_total 4"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestWorkloadExplainAnalyzeFooter: an attributed EXPLAIN ANALYZE gains
// the per-template workload footer.
func TestWorkloadExplainAnalyzeFooter(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	if _, err := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 16"); err != nil {
		t.Fatal(err)
	}
	lines, _, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM sales WHERE price < 99")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, `workload: template "SELECT COUNT(*) FROM sales WHERE price < ?" — 2 calls`) {
		t.Fatalf("missing workload footer:\n%s", joined)
	}
}

// frontDoorDB opens a DB whose table "t" holds v = 0..16383 (BIGINT, 4-byte
// codes) and f = v/4 (DOUBLE, 8-byte codes), with adaptive skipping on
// both; shards > 1 range-shards it on v.
func frontDoorDB(t testing.TB, shards int) (*DB, *Table) {
	t.Helper()
	db := Open(Options{Policy: Adaptive, Shards: shards, ShardKey: "v",
		ZoneSize: 4096, MinZoneRows: 64})
	tab, err := db.CreateTable("t", Col("v", Int64), Col("f", Float64))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 1<<14)
	for i := range rows {
		rows[i] = []Value{IntValue(int64(i)), FloatValue(float64(i) / 4)}
	}
	if err := tab.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableSkipping("v", "f"); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// TestWorkloadAttribution: the front door is the one place a logical
// query is attributed. On an unsharded and a 2-shard table, through
// DB.ExecContext, Table.QueryContext and DB.ExplainAnalyze, one query
// yields exactly one workload sample and one retained trace (the result's
// own; none for a failed query), and the sample is the result's
// accounting: rows read, returned and skipped, zones read and pruned,
// bytes at the filtered column's code width, the shards scanned and
// pruned and their numbers, the cache-hit mark, and the error mark.
func TestWorkloadAttribution(t *testing.T) {
	routes := []struct {
		name string
		run  func(ctx context.Context, db *DB, tab *Table, text string) (*Result, error)
	}{
		{"Exec", func(ctx context.Context, db *DB, _ *Table, text string) (*Result, error) {
			return db.ExecContext(ctx, text)
		}},
		{"Table.QueryContext", func(ctx context.Context, _ *DB, tab *Table, text string) (*Result, error) {
			stmt, err := sql.Parse(text)
			if err != nil {
				return nil, err
			}
			q, err := sql.Plan(stmt, tab.Executor().Table())
			if err != nil {
				return nil, err
			}
			return tab.QueryContext(obs.WithTemplate(ctx, sql.Fingerprint(stmt)), q)
		}},
		{"ExplainAnalyze", func(ctx context.Context, db *DB, _ *Table, text string) (*Result, error) {
			_, res, err := db.ExplainAnalyze(ctx, text)
			return res, err
		}},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name, sql string
		ctx       context.Context
		width     int64 // bytes a scanned row costs; 0: the query fails
		returned  int64
		cacheHit  bool
		shards    []int // shards scanned when sharded (2 in all)
	}{
		{"count on the 4-byte key", "SELECT COUNT(*) FROM t WHERE v BETWEEN 5000 AND 5200",
			context.Background(), 4, 201, false, []int{1}},
		{"count on an 8-byte column", "SELECT COUNT(*) FROM t WHERE f BETWEEN 1250 AND 1300",
			context.Background(), 8, 201, false, []int{1, 2}},
		{"projection", "SELECT v FROM t WHERE v BETWEEN 9000 AND 9009",
			context.Background(), 4, 10, false, []int{2}},
		{"cache hit", "SELECT COUNT(*) FROM t WHERE v BETWEEN 5000 AND 5200",
			obs.WithOrigin(context.Background(), obs.Origin{PlanCached: true}), 4, 201, true, []int{1}},
		{"error", "SELECT COUNT(*) FROM t WHERE v BETWEEN 5000 AND 5200",
			canceled, 0, 0, false, nil},
	}
	for _, shards := range []int{0, 2} {
		for _, rt := range routes {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, rt.name, tc.name), func(t *testing.T) {
					db, tab := frontDoorDB(t, shards)
					stmt, err := sql.Parse(tc.sql)
					if err != nil {
						t.Fatal(err)
					}
					fp := sql.Fingerprint(stmt)
					res, err := rt.run(tc.ctx, db, tab, tc.sql)

					if snap := db.Workload("", 0); snap.Recorded != 1 {
						t.Fatalf("%d samples recorded, want 1", snap.Recorded)
					}
					ts, ok := db.stats.Template(fp)
					if !ok || ts.Calls != 1 || ts.Table != "t" {
						t.Fatalf("template %q: ok=%v %+v", fp, ok, ts)
					}
					if (ts.CacheHits == 1) != tc.cacheHit {
						t.Errorf("cache hits = %d, want hit=%v", ts.CacheHits, tc.cacheHit)
					}
					traces := db.Traces()
					if tc.width == 0 {
						if !errors.Is(err, ErrCanceled) {
							t.Fatalf("err = %v, want ErrCanceled", err)
						}
						if ts.Errors != 1 || ts.RowsRead != 0 || ts.ZonesRead != 0 || ts.BytesScanned != 0 || ts.ShardsScanned != 0 {
							t.Errorf("error sample carries execution totals: %+v", ts)
						}
						if len(traces) != 0 {
							t.Errorf("a failed query retained %d traces", len(traces))
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(traces) != 1 || traces[0] != res.Trace {
						t.Fatalf("ring holds %d traces, want exactly this query's", len(traces))
					}
					if res.Trace.Fingerprint != fp {
						t.Errorf("trace fingerprint %q, want %q", res.Trace.Fingerprint, fp)
					}
					st := res.Stats
					if ts.Errors != 0 || ts.RowsRead != int64(st.RowsScanned) || ts.RowsReturned != tc.returned ||
						int64(res.Count) != tc.returned || ts.RowsSkipped != int64(st.RowsSkipped) {
						t.Errorf("rows: sample %+v, result count %d stats %+v", ts, res.Count, st)
					}
					if ts.RowsRead == 0 || ts.RowsSkipped == 0 {
						t.Errorf("the query read %d rows and skipped %d; want both > 0", ts.RowsRead, ts.RowsSkipped)
					}
					if ts.ZonesRead == 0 || ts.ZonesPruned == 0 || ts.ZonesRead+ts.ZonesPruned != int64(st.ZonesProbed) {
						t.Errorf("zones read %d + pruned %d, want both > 0 and summing to %d probed", ts.ZonesRead, ts.ZonesPruned, st.ZonesProbed)
					}
					if ts.BytesScanned != ts.RowsRead*tc.width {
						t.Errorf("%d bytes scanned for %d rows read, want %d a row", ts.BytesScanned, ts.RowsRead, tc.width)
					}
					var wantShards []int
					wantScanned, wantPruned := int64(0), int64(0)
					if shards > 1 {
						wantShards = tc.shards
						wantScanned, wantPruned = int64(len(tc.shards)), int64(shards-len(tc.shards))
					}
					if ts.ShardsScanned != wantScanned || ts.ShardsPruned != wantPruned || !slices.Equal(ts.Shards, wantShards) {
						t.Errorf("shards scanned %d pruned %d %v, want %d %d %v",
							ts.ShardsScanned, ts.ShardsPruned, ts.Shards, wantScanned, wantPruned, wantShards)
					}
				})
			}
		}
	}
}

// BenchmarkQueryAttribution measures what the front door costs a query:
// the same range count through the raw executor (no door), through
// Table.Query (admission and trace retention), and attributed through
// Table.QueryContext with a template on the context (pprof labels and the
// workload sample as well).
func BenchmarkQueryAttribution(b *testing.B) {
	q := engine.Query{
		Where: expr.And(expr.MustPred("v", expr.Between, IntValue(5000), IntValue(6000))),
		Aggs:  []engine.Agg{{Kind: engine.CountStar}},
	}
	run := func(b *testing.B, query func() (*Result, error)) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := query(); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx := obs.WithTemplate(context.Background(), "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?")
	b.Run("executor", func(b *testing.B) {
		_, tab := frontDoorDB(b, 0)
		run(b, func() (*Result, error) { return tab.Executor().QueryContext(context.Background(), q) })
	})
	b.Run("unattributed", func(b *testing.B) {
		_, tab := frontDoorDB(b, 0)
		run(b, func() (*Result, error) { return tab.Query(q) })
	})
	b.Run("attributed", func(b *testing.B) {
		_, tab := frontDoorDB(b, 0)
		run(b, func() (*Result, error) { return tab.QueryContext(ctx, q) })
	})
}
