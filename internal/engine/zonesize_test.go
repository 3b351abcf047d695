package engine

import (
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// TestOneZoneSizeForEveryPolicy holds Options.ZoneSize to what it says for
// every policy on one column: static and adaptive both fold an appended
// tail into zones once it reaches ZoneSize rows, and not a row before; and
// at the zero-value options the adaptive map builds zones of
// DefaultZoneSize = 65,536 rows, 32 of them on 2 Mi sorted rows, each a
// run of 64 parts of adaptive.DefaultMinZoneRows = 1,024 rows.
func TestOneZoneSizeForEveryPolicy(t *testing.T) {
	const zoneSize, base = 4096, 4 * 4096
	// Below every value: the probe syncs the skipper and prunes every zone,
	// so the adaptive map neither splits nor merges.
	below := Query{Where: expr.And(expr.MustPred("a", expr.LT, storage.IntValue(0))), Aggs: []Agg{{Kind: CountStar}}}
	for _, policy := range []Policy{PolicyStatic, PolicyAdaptive} {
		e := New(sortedTable(t, base), Options{Policy: policy, ZoneSize: zoneSize})
		if err := e.EnableSkipping("a"); err != nil {
			t.Fatal(err)
		}
		rows := base
		for _, step := range []struct{ appended, zones int }{
			{0, 4},
			{zoneSize - 1, 4}, // one row short: the tail stays unindexed
			{1, 5},            // the tail reaches ZoneSize and folds into one zone
			{zoneSize - 1, 5},
			{1, 6},
		} {
			batch := make([][]storage.Value, step.appended)
			for i := range batch {
				batch[i] = []storage.Value{storage.IntValue(int64(rows + i))}
			}
			if err := e.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			rows += step.appended
			if _, err := e.Query(below); err != nil {
				t.Fatal(err)
			}
			if got := e.Skipper("a").Metadata().Zones; got != step.zones {
				t.Fatalf("%s, %d rows at %d-row zones: %d zones, want %d", policy, rows, zoneSize, got, step.zones)
			}
		}
	}

	const rows = 1 << 21
	e := New(sortedTable(t, rows), Options{Policy: PolicyAdaptive})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	z := e.Skipper("a").(*adaptive.Zonemap)
	zones := z.Zones
	if len(zones) != rows/DefaultZoneSize || DefaultZoneSize != 65536 {
		t.Fatalf("zero-value options: %d zones of a %d-row default, want 32 of 65536", len(zones), DefaultZoneSize)
	}
	if len(z.Parts) != rows/adaptive.DefaultMinZoneRows || adaptive.DefaultMinZoneRows != 1024 {
		t.Fatalf("zero-value options: %d parts of a %d-row default, want 2048 of 1024", len(z.Parts), adaptive.DefaultMinZoneRows)
	}
	for i, zn := range zones {
		if lo, hi := zn.Rows(); lo != i*65536 || hi != (i+1)*65536 {
			t.Fatalf("zone %d spans [%d,%d), want [%d,%d)", i, zn.Lo, zn.Hi, i*65536, (i+1)*65536)
		}
	}
}
