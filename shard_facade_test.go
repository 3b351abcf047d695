package adskip

import (
	"bytes"
	"context"
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

// TestShardedSaveRoundTrip: a sharded table reports its shards and no
// single engine, and WriteCSV exports all rows. That SaveTable's merged
// snapshot loads into another layout is the torture oracle's to check.
func TestShardedSaveRoundTrip(t *testing.T) {
	db, tab := shardedDB(t, "range")
	defer db.Close()
	if tab.Shards() != 4 || tab.Engine() != nil {
		t.Fatalf("Shards() = %d, Engine() = %v; want 4 and nil on a sharded table", tab.Shards(), tab.Engine())
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv, "NULL"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 401 { // header + 400 rows
		t.Fatalf("CSV has %d lines, want 401", lines)
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
