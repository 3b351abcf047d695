package adskip

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

func TestConvergenceOnFineClusters(t *testing.T) {
	const rows = 2_000_000
	vals := workload.Generate(workload.DataSpec{N: rows, Dist: workload.Clustered, Domain: rows, Clusters: 2048, Seed: 5})
	tbl := table.MustNew("t", table.Schema{{Name: "key", Type: storage.Int64}})
	col, _ := tbl.Column("key")
	for _, v := range vals {
		col.AppendInt(v)
	}
	e := engine.New(tbl, engine.Options{Policy: engine.PolicyAdaptive, ZoneSize: rows / 256,
		MinZoneRows: 256})
	e.EnableSkipping("key")
	rng := rand.New(rand.NewSource(2))
	q := func() engine.Query {
		lo := int64(rows/4) + rng.Int63n(rows/10)
		return engine.Query{
			Where: expr.And(expr.MustPred("key", expr.Between, storage.IntValue(lo), storage.IntValue(lo+rows/500))),
			Aggs:  []engine.Agg{{Kind: engine.CountStar}},
		}
	}
	for i := 0; i < 800; i++ {
		e.Query(q())
	}
	if !e.Skipper("key").Metadata().Enabled {
		t.Fatal("arbitration disabled skipping on a skippable workload")
	}
	var scanned int
	for i := 0; i < 50; i++ {
		res, err := e.Query(q())
		if err != nil {
			t.Fatal(err)
		}
		scanned += res.Stats.RowsScanned
	}
	scanned /= 50
	// A hot-range workload over 2048 narrow clusters must converge well
	// below a 35% scan fraction (the pre-crack-alignment behavior scanned
	// ~45% of the table forever; see learn.go planSplit coalescing).
	if frac := float64(scanned) / rows; frac > 0.35 {
		t.Fatalf("steady-state scan fraction %.0f%% (scanned %d rows/query, %d zones) — convergence regressed",
			frac*100, scanned, e.Skipper("key").Metadata().Zones)
	}
}

// TestColdRestartReconverges: the learned zonemap is not persisted, so a
// restart must relearn it from the queries it serves, and that must cost
// no more than a static map. A table loaded from its snapshot (the
// persistence example's shape, 2048 clusters, at test scale) starts with
// cold adaptive metadata; over its first 20 hot-range queries it does no
// more work (rows scanned plus ProbeCost per zone probed) than a static
// twin at its initial zone size, and from query restartK on it scans at
// most 1.5x the rows of the warm table the snapshot was taken from. The
// counts are deterministic; no clock is read.
func TestColdRestartReconverges(t *testing.T) {
	const (
		rows      = 1 << 18
		restartK  = 10 // the cold map matched the warm one from query 5 when measured
		stream    = 100
		zoneRows  = rows / 256
		hotWindow = rows / 500
	)
	adaptiveOpts := Options{Policy: Adaptive, ZoneSize: zoneRows, MinZoneRows: rows / 8192}
	warm := Open(adaptiveOpts)
	tab, err := warm.CreateTable("events", Col("key", Int64))
	if err != nil {
		t.Fatal(err)
	}
	vals := workload.Generate(workload.DataSpec{N: rows, Dist: workload.Clustered, Domain: rows, Clusters: 2048, Seed: 5})
	batch := make([][]Value, len(vals))
	for i, v := range vals {
		batch[i] = []Value{IntValue(v)}
	}
	if err := tab.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	hot := func(rng *rand.Rand) string {
		lo := int64(rows/4) + rng.Int63n(rows/10)
		return fmt.Sprintf("SELECT COUNT(*) FROM events WHERE key BETWEEN %d AND %d", lo, lo+hotWindow)
	}
	exec := func(db *DB, sql string) obs.Cost {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 800; q++ {
		exec(warm, hot(rng))
	}
	var snap bytes.Buffer
	if err := warm.SaveTable("events", &snap); err != nil {
		t.Fatal(err)
	}
	restart := func(opts Options) *DB {
		db := Open(opts)
		tab, err := db.LoadTable(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.EnableSkipping(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	cold, static := restart(adaptiveOpts), restart(Options{Policy: Static, ZoneSize: zoneRows})

	work := func(c obs.Cost) float64 { return float64(c.RowsScanned) + adaptive.ProbeCost*float64(c.ZonesProbed) }
	var coldWork, staticWork float64
	rng = rand.New(rand.NewSource(3))
	for q := 0; q < stream; q++ {
		sql := hot(rng)
		w, c, s := exec(warm, sql), exec(cold, sql), exec(static, sql)
		if q < 20 {
			coldWork += work(c)
			staticWork += work(s)
		}
		if q >= restartK && float64(c.RowsScanned) > 1.5*float64(w.RowsScanned) {
			t.Errorf("query %d: cold restart scanned %d rows, warm table %d", q, c.RowsScanned, w.RowsScanned)
		}
	}
	if coldWork > staticWork {
		t.Errorf("first 20 queries: cold restart did %.0f units of work, static twin %.0f", coldWork, staticWork)
	}
}
