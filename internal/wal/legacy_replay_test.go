package wal_test

import (
	"fmt"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// TestOldSegmentRecovers: a log of row-major KindRows records, the form
// older releases wrote, still recovers through the engine's replay to the
// table its appends built, and to the table the same appends recover to
// when they are logged as column blocks.
func TestOldSegmentRecovers(t *testing.T) {
	schema := table.Schema{
		{Name: "i", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
	types := []storage.Type{storage.Int64, storage.Float64, storage.String}
	var batches [][][]storage.Value
	for k, n := range []int{5, 300, 1, 70} {
		rows := make([][]storage.Value, n)
		for i := range rows {
			rows[i] = []storage.Value{storage.IntValue(int64(k*1000 + i)), storage.FloatValue(float64(i) / 4), storage.StringValue(fmt.Sprintf("s%d", (i*k)%11))}
			if i%13 == 2 {
				rows[i][i%3] = storage.NullValue(types[i%3])
			}
		}
		if k == 2 {
			rows[0][0] = storage.IntValue(-1 << 40)
		}
		batches = append(batches, rows)
	}
	want := table.MustNew("t", schema)
	var old []*wal.Record
	for _, rows := range batches {
		old = append(old, &wal.Record{Kind: wal.KindRows, Table: "t", BaseRow: uint64(want.NumRows()), Types: types, Rows: rows})
		if err := want.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}

	oldDir, newDir := t.TempDir(), t.TempDir()
	if err := wal.WriteLegacySegment(oldDir, old...); err != nil {
		t.Fatal(err)
	}
	src := engine.New(table.MustNew("t", schema), engine.Options{})
	l, _, err := wal.Open(wal.Options{Dir: newDir, NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.SetWAL(l)
	for _, rows := range batches {
		if err := src.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{oldDir, newDir} {
		e := engine.New(table.MustNew("t", schema), engine.Options{})
		l, stats, err := wal.Open(wal.Options{Dir: dir, NoSync: true}, e.ReplayRecord)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if stats.Records != uint64(len(batches)) || stats.Rows != int64(want.NumRows()) {
			t.Fatalf("%s: recovered %d records, %d rows; want %d and %d", dir, stats.Records, stats.Rows, len(batches), want.NumRows())
		}
		if got, w := dump(e.Table()), dump(want); got != w {
			t.Fatalf("recovered table differs:\n%.400s\nwant\n%.400s", got, w)
		}
	}
}

// dump renders every cell, each column's code width and each dictionary in
// code order.
func dump(tb *table.Table) string {
	var b strings.Builder
	for ci := 0; ci < tb.NumColumns(); ci++ {
		c := tb.ColumnAt(ci)
		fmt.Fprintf(&b, "[%s %d rows, width %d:", c.Name(), c.Len(), c.Vec().Width())
		for i := 0; i < c.Len(); i++ {
			fmt.Fprintf(&b, " %v", c.Value(i))
		}
		if d := c.Dict(); d != nil {
			fmt.Fprintf(&b, " dict %q", d.Values())
		}
		b.WriteString("]")
	}
	return b.String()
}
