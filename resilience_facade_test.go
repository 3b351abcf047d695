package adskip

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/table"
)

// metricsDB builds a DB with one adaptive-skipped table big enough to
// grow real zone metadata, and trains it with a short query stream. With
// shards > 1 the table is range-sharded on seq, so every shard holds every
// value of v.
func metricsDB(t *testing.T, shards int) (*DB, *Table) {
	t.Helper()
	db := Open(Options{
		Policy: Adaptive, ZoneSize: 64, MinZoneRows: 8,
		Shards: shards, ShardKey: "seq", ShardBy: "range",
	})
	tab, err := db.CreateTable("metrics", Col("v", Int64), Col("seq", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := tab.Append(int64(i%512), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 25; q++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 100 AND 200"); err != nil {
			t.Fatal(err)
		}
	}
	return db, tab
}

// TestLoadTableCorruptionAtomic verifies DB.LoadTable is failure-atomic:
// a truncated or bit-flipped snapshot is rejected with a typed error and
// the catalog — including tables loaded before the bad attempt — is
// untouched and still serves queries.
func TestLoadTableCorruptionAtomic(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	var buf bytes.Buffer
	if err := db.SaveTable("sales", &buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	fresh := Open(Options{Policy: Static})

	// Bit flip mid-payload: the checksum must catch it.
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := fresh.LoadTable(bytes.NewReader(flipped)); !errors.Is(err, table.ErrChecksum) {
		t.Fatalf("bit flip: err=%v, want ErrChecksum", err)
	}
	if got := fresh.TableNames(); len(got) != 0 {
		t.Fatalf("failed load polluted catalog: %v", got)
	}

	// Truncations at several depths: all rejected, catalog stays clean.
	for _, cut := range []int{0, 2, len(snap) / 3, len(snap) - 1} {
		if _, err := fresh.LoadTable(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if got := fresh.TableNames(); len(got) != 0 {
		t.Fatalf("truncated load polluted catalog: %v", got)
	}

	// Garbage that is not a snapshot at all.
	if _, err := fresh.LoadTable(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, table.ErrBadMagic) {
		t.Fatalf("garbage: err=%v, want ErrBadMagic", err)
	}

	// The pristine snapshot still loads after all the failed attempts.
	tab, err := fresh.LoadTable(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5 {
		t.Fatalf("rows=%d", tab.NumRows())
	}
	if _, err := fresh.Exec("SELECT COUNT(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
}

func TestExecContextCancellation(t *testing.T) {
	db, _ := metricsDB(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, "SELECT COUNT(*) FROM metrics WHERE v > 10")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	// Same statement succeeds with a live context.
	if _, err := db.ExecContext(context.Background(), "SELECT COUNT(*) FROM metrics WHERE v > 10"); err != nil {
		t.Fatal(err)
	}
}

func TestLimitsThroughFacade(t *testing.T) {
	db := Open(Options{Limits: Limits{MaxRowsScanned: 1000}})
	tab, err := db.CreateTable("t", Col("v", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		if err := tab.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE v > 5"); !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
}

// TestQuarantineLifecycleThroughFacade drives metadata corruption with
// fault injection and checks the public surface end to end, on one table
// and on a 2-shard range table: one injected InvariantFlip breaks one
// (shard's) adaptive zonemap, the next probe drops that skipper, queries
// stay exact, the one quarantine record in Adaptation(0).Events carries the
// shard's stamp, the shard's adskip_skipper_zones reads 0 (SkipperInfo
// loses the column when no shard keeps a skipper), and EnableSkipping
// brings the zones back.
func TestQuarantineLifecycleThroughFacade(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, tab := metricsDB(t, shards)
			exact := func(stage string) {
				t.Helper()
				res, err := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 100 AND 200")
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if !res.Aggs[0].Equal(IntValue(8 * 101)) {
					t.Fatalf("%s: count=%v, want %d", stage, res.Aggs[0], 8*101)
				}
			}
			// zones reads one shard's adskip_skipper_zones for v (shard 0:
			// the unsharded table's series).
			zones := func(shard int) int64 {
				t.Helper()
				labels := `column="v",`
				if shard > 0 {
					labels += fmt.Sprintf(`shard="%d",`, shard)
				}
				v, ok := seriesValue(scrape(t, db), `adskip_skipper_zones{`+labels+`table="metrics"}`)
				if !ok {
					t.Fatalf("no adskip_skipper_zones series for shard %d", shard)
				}
				return v
			}

			restore := faultinject.Activate(faultinject.New(5).
				Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
			if _, err := db.Exec("SELECT COUNT(*) FROM metrics WHERE v BETWEEN 50 AND 150"); err != nil {
				restore()
				t.Fatal(err)
			}
			restore()

			// The next query's probe detects the corruption and drops the
			// skipper; the answer stays exact.
			exact("the detecting query")
			var quarantines []AdaptationRecord
			for _, ev := range db.Adaptation(0).Events {
				if ev.Kind == obs.EventQuarantine {
					quarantines = append(quarantines, ev)
				}
			}
			if len(quarantines) != 1 || quarantines[0].Column != "v" || quarantines[0].Cause != "corruption" {
				t.Fatalf("quarantine records %+v, want one on v with cause corruption", quarantines)
			}
			dropped := quarantines[0].Shard
			if (shards == 0) != (dropped == 0) {
				t.Fatalf("quarantine stamped shard %d on a table of %d shards", dropped, shards)
			}
			if got := zones(dropped); got != 0 {
				t.Fatalf("the dropped skipper's shard still reads %d zones", got)
			}
			info, ok := tab.SkipperInfo()["v"]
			if shards == 0 && ok {
				t.Fatalf("SkipperInfo still lists v: %+v", info)
			}
			if shards > 0 && (!ok || int64(info.Zones) != zones(3-dropped)) {
				t.Fatalf("SkipperInfo[v] = %+v, want the other shard's %d zones alone", info, zones(3-dropped))
			}
			exact("a full-scan query")

			if err := tab.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			if zones(dropped) == 0 {
				t.Fatal("EnableSkipping left the shard without zones")
			}
			if info := tab.SkipperInfo()["v"]; info.Kind != "adaptive" || int64(info.Zones) < zones(dropped) {
				t.Fatalf("skipper not rebuilt: %+v", info)
			}
			exact("after EnableSkipping")
		})
	}
}

// TestAdmissionControl: MaxConcurrentQueries admits one logical query at
// a time, sharded or not. A query that gives up waiting for the slot
// returns ErrCanceled and counts once in its table's
// adskip_queries_canceled_total, and once the slot is released a query
// runs.
func TestAdmissionControl(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := Open(Options{MaxConcurrentQueries: 1, Shards: shards})
			tab, err := db.CreateTable("t", Col("v", Int64))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if err := tab.Append(i); err != nil {
					t.Fatal(err)
				}
			}
			const q = "SELECT COUNT(*) FROM t WHERE v >= 0"
			// Occupy the only slot; a query with a short deadline must give
			// up while waiting for admission, not hang.
			if err := db.admission.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			if _, err := db.ExecContext(ctx, q); !errors.Is(err, ErrCanceled) {
				t.Fatalf("err=%v, want ErrCanceled while awaiting admission", err)
			}
			canceled := db.Metrics().Counter("adskip_queries_canceled_total", "", obs.L("table", "t")).Load()
			if canceled != 1 {
				t.Errorf("adskip_queries_canceled_total{table=\"t\"} = %d, want 1", canceled)
			}

			db.admission.release()
			res, err := db.Exec(q)
			if err != nil {
				t.Fatalf("query after release failed: %v", err)
			}
			if !res.Aggs[0].Equal(IntValue(500)) {
				t.Fatalf("count = %v, want 500", res.Aggs[0])
			}
		})
	}
}

func TestMaxConcurrentQueriesSmoke(t *testing.T) {
	db := Open(Options{MaxConcurrentQueries: 1})
	tab, err := db.CreateTable("t", Col("v", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tab.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential queries each acquire and release the single slot.
	for q := 0; q < 10; q++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE v >= 0"); err != nil {
			t.Fatal(err)
		}
	}
}
