package adskip

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// shardedDB opens a DB sharded 4 ways on "id" and fills one table with
// 400 deterministic rows.
func shardedDB(t *testing.T, mode string) (*DB, *Table) {
	t.Helper()
	db := Open(Options{Policy: Adaptive, Shards: 4, ShardKey: "id", ShardBy: mode})
	tab, err := db.CreateTable("sales",
		Col("id", Int64), Col("price", Float64), Col("city", String))
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"oslo", "rome", "cairo", "lima"}
	rows := make([][]Value, 0, 400)
	for i := 0; i < 400; i++ {
		rows = append(rows, []Value{
			IntValue(int64(i)),
			FloatValue(float64(i) / 4),
			StringValue(cities[i%len(cities)]),
		})
	}
	if err := tab.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableSkipping("id", "price"); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// TestShardedSQL drives the full SQL path — parse, plan, scatter-gather,
// merge — through a sharded DB and checks answers against what an
// unsharded DB computes over the same data.
func TestShardedSQL(t *testing.T) {
	for _, mode := range []string{"range", "hash"} {
		t.Run(mode, func(t *testing.T) {
			db, tab := shardedDB(t, mode)
			defer db.Close()
			if got := tab.Shards(); got != 4 {
				t.Fatalf("Shards() = %d, want 4", got)
			}
			if tab.Engine() != nil {
				t.Fatal("Engine() on a sharded table should be nil")
			}
			if tab.NumRows() != 400 {
				t.Fatalf("NumRows = %d, want 400", tab.NumRows())
			}

			ref := Open(Options{Policy: Adaptive})
			refTab, err := ref.CreateTable("sales",
				Col("id", Int64), Col("price", Float64), Col("city", String))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				cities := []string{"oslo", "rome", "cairo", "lima"}
				if err := refTab.Append(i, float64(i)/4, cities[i%4]); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range []string{
				"SELECT COUNT(*) FROM sales WHERE id BETWEEN 10 AND 40",
				"SELECT SUM(price), MIN(price), MAX(price) FROM sales WHERE id < 100",
				"SELECT AVG(price) FROM sales WHERE city = 'rome'",
				"SELECT id, price FROM sales WHERE id >= 390 ORDER BY id DESC LIMIT 5",
				"SELECT city, COUNT(*) FROM sales WHERE id < 200 GROUP BY city",
				"SELECT COUNT(*) FROM sales WHERE id > 100000",
			} {
				got, err := db.Exec(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				want, err := ref.Exec(q)
				if err != nil {
					t.Fatalf("%s (ref): %v", q, err)
				}
				if got.Count != want.Count || fmt.Sprint(got.Aggs) != fmt.Sprint(want.Aggs) ||
					fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("%s:\nsharded  count=%d aggs=%v rows=%v\nunsharded count=%d aggs=%v rows=%v",
						q, got.Count, got.Aggs, got.Rows, want.Count, want.Aggs, want.Rows)
				}
			}
		})
	}
}

// TestShardedExplainAnalyze: EXPLAIN ANALYZE through the facade reports
// the shard-prune phase on a sharded table, and the footers of the logical
// query: its template's workload line and the table's ledger line (the
// skippers' builds are ledger events).
func TestShardedExplainAnalyze(t *testing.T) {
	db, _ := shardedDB(t, "range")
	defer db.Close()
	lines, res, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM sales WHERE id BETWEEN 0 AND 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsPruned == 0 {
		t.Errorf("narrow key range pruned no shards (scanned %d)", res.Stats.ShardsScanned)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "shard") {
		t.Errorf("EXPLAIN ANALYZE has no shard line:\n%s", joined)
	}
	for _, footer := range []string{"\nworkload: template ", "\nledger: "} {
		if strings.Count(joined, footer) != 1 {
			t.Errorf("EXPLAIN ANALYZE has %d %q footers, want 1:\n%s", strings.Count(joined, footer), footer[1:], joined)
		}
	}
}

// TestShardedSaveRoundTrip: SaveTable on a sharded DB writes a merged
// snapshot that an unsharded DB can load, and WriteCSV exports all rows.
func TestShardedSaveRoundTrip(t *testing.T) {
	db, tab := shardedDB(t, "range")
	defer db.Close()
	var buf bytes.Buffer
	if err := db.SaveTable("sales", &buf); err != nil {
		t.Fatal(err)
	}
	db2 := Open(Options{})
	tab2, err := db2.LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.NumRows() != 400 {
		t.Fatalf("loaded %d rows, want 400", tab2.NumRows())
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv, "NULL"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 401 { // header + 400 rows
		t.Fatalf("CSV has %d lines, want 401", lines)
	}
}

// TestShardedDurability: a sharded durable DB logs per-shard WAL records
// and a fresh sharded DB recovers them into the same placement.
func TestShardedDurability(t *testing.T) {
	dir := t.TempDir()
	open := func() (*DB, *Table) {
		db := Open(Options{Policy: Adaptive, Shards: 4, ShardKey: "id",
			Durability: Durability{Dir: dir}})
		tab, err := db.CreateTable("sales",
			Col("id", Int64), Col("price", Float64), Col("city", String))
		if err != nil {
			t.Fatal(err)
		}
		return db, tab
	}
	db, tab := open()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 0, 200)
	for i := 0; i < 200; i++ {
		rows = append(rows, []Value{IntValue(int64(i)), FloatValue(float64(i)), StringValue("x")})
	}
	if err := tab.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, tab2 := open()
	stats, err := db2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if stats.Rows != 200 {
		t.Fatalf("recovered %d rows, want 200", stats.Rows)
	}
	if tab2.NumRows() != 200 {
		t.Fatalf("NumRows after recovery = %d, want 200", tab2.NumRows())
	}
	res, err := db2.Exec("SELECT COUNT(*) FROM sales WHERE id BETWEEN 0 AND 49")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(IntValue(50)) {
		t.Fatalf("post-recovery count = %v, want 50", res.Aggs[0])
	}
}

// TestShardedOptionsValidation: bad shard configuration surfaces at
// CreateTable, not at first query.
func TestShardedOptionsValidation(t *testing.T) {
	db := Open(Options{Shards: 4, ShardKey: "city"})
	if _, err := db.CreateTable("t", Col("id", Int64), Col("city", String)); err == nil {
		t.Error("string shard key accepted")
	}
	db2 := Open(Options{Shards: 4, ShardKey: "id", ShardBy: "mod"})
	if _, err := db2.CreateTable("t", Col("id", Int64)); err == nil {
		t.Error("unknown shard mode accepted")
	}
}
