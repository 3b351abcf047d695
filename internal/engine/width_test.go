package engine

import (
	"math"
	"runtime"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// TestQueryAllocsSameAtBothWidths keeps Column.Codes — which widens a
// 4-byte vector into a fresh []int64 — off the query path: a COUNT range, an
// ORDER BY … LIMIT and a GROUP BY allocate as often, and as much, on a table
// whose columns are 4-byte code vectors as on its twin, whose last row
// (outside every predicate) makes both columns 8-byte ones. A reader that
// fell back to Codes would show up as one more allocation per call, the size
// of the column widened.
func TestQueryAllocsSameAtBothWidths(t *testing.T) {
	build := func(last int64, width int) *Engine {
		tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}, {Name: "k", Type: storage.Int64}})
		rows := make([][]storage.Value, 0, 1<<14+1)
		for i := int64(0); i < 1<<14; i++ {
			rows = append(rows, []storage.Value{storage.IntValue(i * 7919 % 1000), storage.IntValue(i % 7)})
		}
		rows = append(rows, []storage.Value{storage.IntValue(last), storage.IntValue(last)})
		e := New(tb, Options{Policy: PolicyStatic, ZoneSize: 1024})
		if err := e.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
		if err := e.EnableSkipping("v"); err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < tb.NumColumns(); ci++ {
			if got := tb.ColumnAt(ci).Vec().Width(); got != width {
				t.Fatalf("column %d: %d-byte codes, want %d", ci, got, width)
			}
		}
		return e
	}
	narrow, wide := build(1<<32-1, 4), build(1<<32, 8)
	where := expr.And(expr.MustPred("v", expr.Between, storage.IntValue(100), storage.IntValue(200)))
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"count range", Query{Where: where, Aggs: []Agg{{Kind: CountStar}}}},
		{"order by limit", Query{Where: where, Select: []string{"v", "k"}, OrderBy: "v", OrderDesc: true, Limit: 10}},
		{"group by", Query{Where: where, GroupBy: "k", Aggs: []Agg{{Kind: CountStar}, {Kind: Sum, Col: "v"}}}},
	} {
		// Mallocs and bytes per query over 20 runs. The race detector makes
		// sync.Pool drop items at random, so counts may differ by one or
		// two; a widened copy of a 16 Ki-row column is 128 KiB.
		measure := func(e *Engine) (mallocs, bytes float64) {
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := e.Query(tc.q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
		measure(narrow) // warm both engines' pools and plan state
		measure(wide)
		nm, nb := measure(narrow)
		wm, wb := measure(wide)
		if math.Abs(nm-wm) > 2 || nb > wb+4096 {
			t.Errorf("%s: %.1f allocations and %.0f bytes a query on 4-byte columns, %.1f and %.0f on 8-byte ones", tc.name, nm, nb, wm, wb)
		}
	}
}

// TestByteReportsFollowCodeWidth: the two byte figures derived from row
// counts — a query's bytes scanned (ExecStats.BytesScanned, which the
// workload sample reports) and a column's bytes skipped — charge the
// column's physical code width: 4 bytes while every value fits 32 bits, 8
// once one row (outside every query's range here) does not.
func TestByteReportsFollowCodeWidth(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outlier int64
		width   int
	}{{"narrow", 1 << 31, 4}, {"wide", 1 << 32, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
			col, _ := tbl.Column("v")
			for i := int64(0); i < 1<<14; i++ {
				col.AppendInt(i)
			}
			col.AppendInt(tc.outlier)
			e := New(tbl, Options{Policy: PolicyAdaptive, ZoneSize: 4096, MinZoneRows: 64})
			if err := e.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			q := Query{
				Where: expr.And(expr.MustPred("v", expr.Between, storage.IntValue(5000), storage.IntValue(5200))),
				Aggs:  []Agg{{Kind: CountStar}},
			}
			scanned := 0
			for i := 0; i < 12; i++ {
				res, err := e.Query(q)
				if err != nil || res.Count != 201 {
					t.Fatalf("count=%d err=%v", res.Count, err)
				}
				if res.Stats.BytesScanned != res.Stats.RowsScanned*tc.width {
					t.Fatalf("query %d: %d bytes scanned for %d rows, want %d a row", i, res.Stats.BytesScanned, res.Stats.RowsScanned, tc.width)
				}
				scanned += res.Stats.RowsScanned
			}
			if scanned == 0 {
				t.Fatal("no query scanned a row")
			}
			rois := e.AdaptationROI(0)
			if len(rois) != 1 || rois[0].RowsSkipped == 0 || rois[0].BytesSkipped != rois[0].RowsSkipped*int64(tc.width) {
				t.Fatalf("ROI %+v, want bytes skipped = rows skipped x %d", rois, tc.width)
			}
		})
	}
}
