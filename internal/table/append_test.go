package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adskip/internal/dict"
	"adskip/internal/storage"
)

func mixedSchema() Schema {
	return Schema{
		{Name: "i", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
}

// naiveAppend is the reference AppendRows is held to: one typed append per
// cell, row by row, the way the table was filled before the batch kernel.
func naiveAppend(t *Table, rows [][]storage.Value) error {
	for _, r := range rows {
		for ci, v := range r {
			c := t.ColumnAt(ci)
			var err error
			switch {
			case v.IsNull():
				c.AppendNull()
			case c.Type() == storage.Int64:
				err = c.AppendInt(v.Int())
			case c.Type() == storage.Float64:
				err = c.AppendFloat(v.Float())
			default:
				err = c.AppendString(v.Str())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// randomBatch draws n rows of mixedSchema: NULLs in every column, signed
// zeros and infinities among the floats, strings both repeated and new.
func randomBatch(rng *rand.Rand, n int) [][]storage.Value {
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64}
	rows := make([][]storage.Value, n)
	for k := range rows {
		row := []storage.Value{
			storage.IntValue(rng.Int63() - rng.Int63()),
			storage.FloatValue(rng.NormFloat64() * 1e6),
			storage.StringValue(fmt.Sprintf("s%d", rng.Intn(40))),
		}
		if rng.Intn(4) == 0 {
			row[1] = storage.FloatValue(floats[rng.Intn(len(floats))])
		}
		if rng.Intn(16) == 0 {
			row[2] = storage.StringValue(fmt.Sprintf("new-%d", rng.Int63()))
		}
		for ci := range row {
			if rng.Intn(10) == 0 {
				// A NULL's own type is not checked: one of another type passes.
				row[ci] = storage.NullValue(storage.Type(rng.Intn(3)))
			}
		}
		rows[k] = row
	}
	return rows
}

// requireSameTable compares two tables cell by cell, with NULL counts,
// code vectors, capacities and dictionary contents.
func requireSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: got %d, want %d", got.NumRows(), want.NumRows())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < want.NumColumns(); ci++ {
		g, w := got.ColumnAt(ci), want.ColumnAt(ci)
		if g.NullCount() != w.NullCount() {
			t.Fatalf("column %q: NullCount got %d, want %d", w.Name(), g.NullCount(), w.NullCount())
		}
		if (g.Nulls() == nil) != (w.Nulls() == nil) || (g.Nulls() != nil && !g.Nulls().Equal(w.Nulls())) {
			t.Fatalf("column %q: null bitmaps differ", w.Name())
		}
		if cap(g.Codes()) != cap(w.Codes()) {
			t.Fatalf("column %q: capacity got %d, want %d", w.Name(), cap(g.Codes()), cap(w.Codes()))
		}
		for i := 0; i < w.Len(); i++ {
			if g.Codes()[i] != w.Codes()[i] || !g.Value(i).Equal(w.Value(i)) {
				t.Fatalf("column %q row %d: got %v (code %d), want %v (code %d)",
					w.Name(), i, g.Value(i), g.Codes()[i], w.Value(i), w.Codes()[i])
			}
		}
		if w.Dict() != nil {
			gv, wv := g.Dict().Values(), w.Dict().Values()
			if len(gv) != len(wv) {
				t.Fatalf("column %q: dictionary has %d entries, want %d", w.Name(), len(gv), len(wv))
			}
			for k := range wv {
				if gv[k] != wv[k] {
					t.Fatalf("column %q: dictionary entry %d is %q, want %q", w.Name(), k, gv[k], wv[k])
				}
			}
		}
	}
}

// appendDifferential feeds the same random batches to AppendRows and to
// the naive reference and requires identical tables after every batch.
func appendDifferential(t *testing.T, seed int64, sizes []int) {
	rng := rand.New(rand.NewSource(seed))
	got, want := MustNew("t", mixedSchema()), MustNew("t", mixedSchema())
	for _, n := range sizes {
		batch := randomBatch(rng, n)
		if err := got.AppendRows(batch); err != nil {
			t.Fatalf("AppendRows(%d rows): %v", n, err)
		}
		if err := naiveAppend(want, batch); err != nil {
			t.Fatalf("reference: %v", err)
		}
		requireSameTable(t, got, want)
	}
}

func TestAppendRowsMatchesRowAtATime(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
	}{
		{"single rows", []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{"empty batch between", []int{3, 0, 5}},
		{"word boundaries", []int{63, 1, 1, 63, 64, 65, 127}},
		{"small then parallel", []int{256, parallelCells / 3, 100}},
		{"parallel first", []int{parallelCells, 1, parallelCells/3 + 7}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				appendDifferential(t, seed, tc.sizes)
			})
		}
	}
}

func FuzzAppendRows(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(300))
	f.Add(int64(2), uint16(64), uint16(65))
	f.Add(int64(3), uint16(5000), uint16(1))
	f.Add(int64(4), uint16(0), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, a, b uint16) {
		appendDifferential(t, seed, []int{int(a) % 8192, int(b) % 8192, 1})
	})
}

// TestAppendRowsRejectsWholeBatch: one bad cell anywhere — serial or
// parallel batch — and no column changes.
func TestAppendRowsRejectsWholeBatch(t *testing.T) {
	bad := []struct {
		name   string
		sealed bool
		row    []storage.Value
		want   error
	}{
		{"arity", false, []storage.Value{storage.IntValue(1)}, ErrRowArity},
		{"type mismatch", false, []storage.Value{storage.IntValue(1), storage.FloatValue(1), storage.IntValue(1)}, storage.ErrTypeMismatch},
		{"NaN", false, []storage.Value{storage.IntValue(1), storage.FloatValue(math.NaN()), storage.StringValue("s1")}, storage.ErrNaN},
		{"sealed dictionary", true, []storage.Value{storage.IntValue(1), storage.FloatValue(1), storage.StringValue("absent")}, dict.ErrSealed},
	}
	for _, tc := range bad {
		for _, n := range []int{1, 200, parallelCells} {
			t.Run(fmt.Sprintf("%s/rows=%d", tc.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				got, want := MustNew("t", mixedSchema()), MustNew("t", mixedSchema())
				base := randomBatch(rng, 150)
				if err := got.AppendRows(base); err != nil {
					t.Fatal(err)
				}
				if err := naiveAppend(want, base); err != nil {
					t.Fatal(err)
				}
				if tc.sealed {
					got.SealDicts()
					want.SealDicts()
				}
				batch := randomBatch(rng, n)
				if tc.sealed {
					for _, r := range batch {
						r[2] = base[0][2]
					}
				}
				batch[n-1-n/3] = tc.row
				if err := got.AppendRows(batch); !errors.Is(err, tc.want) {
					t.Fatalf("AppendRows = %v, want %v", err, tc.want)
				}
				requireSameTable(t, got, want)
			})
		}
	}
}

// TestCapacityDependsOnRowCountOnly: the same rows appended one at a
// time, 256 at a time and 64 Ki at a time leave every column with the
// capacity the per-cell reference reaches — what keeps the live heap of a
// loaded table independent of how it was batched.
func TestCapacityDependsOnRowCountOnly(t *testing.T) {
	const n = 300_000
	rows := make([][]storage.Value, n)
	cells := make([]storage.Value, 3*n)
	for i := range rows {
		rows[i] = cells[3*i : 3*i+3 : 3*i+3]
		rows[i][0] = storage.IntValue(int64(i))
		rows[i][1] = storage.FloatValue(float64(i))
		rows[i][2] = storage.StringValue("x")
		if i%1000 == 999 {
			rows[i][0] = storage.NullValue(storage.Int64)
		}
	}
	ref := MustNew("t", mixedSchema())
	if err := naiveAppend(ref, rows); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 256, 1 << 16} {
		tb := MustNew("t", mixedSchema())
		for lo := 0; lo < n; lo += batch {
			if err := tb.AppendRows(rows[lo:min(lo+batch, n)]); err != nil {
				t.Fatal(err)
			}
		}
		for ci := 0; ci < tb.NumColumns(); ci++ {
			got, want := cap(tb.ColumnAt(ci).Codes()), cap(ref.ColumnAt(ci).Codes())
			if got != want {
				t.Errorf("batch %d, column %q: capacity %d, row-at-a-time reference %d", batch, tb.ColumnAt(ci).Name(), got, want)
			}
		}
		if got, want := cap(tb.ColumnAt(0).Nulls().Words()), cap(ref.ColumnAt(0).Nulls().Words()); got != want {
			t.Errorf("batch %d: null bitmap capacity %d words, reference %d", batch, got, want)
		}
	}
}

func TestBatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomBatch(rng, BulkRows+BulkRows/2)
	got, want := MustNew("t", mixedSchema()), MustNew("t", mixedSchema())
	b := NewBatcher(got)
	scratch := make([]storage.Value, 3)
	for k, r := range rows {
		copy(scratch, r) // Add must copy: the caller reuses its slice
		if err := b.Add(scratch...); err != nil {
			t.Fatal(err)
		}
		if k == BulkRows-1 && got.NumRows() != BulkRows {
			t.Fatalf("after %d rows the table holds %d: no flush at BulkRows", k+1, got.NumRows())
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil { // nothing buffered: a no-op
		t.Fatal(err)
	}
	if err := naiveAppend(want, rows); err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, got, want)

	if err := b.Add(storage.IntValue(1)); !errors.Is(err, ErrRowArity) {
		t.Fatalf("short row: %v", err)
	}
	if err := b.Add(storage.IntValue(1), storage.IntValue(2), storage.StringValue("s")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); !errors.Is(err, storage.ErrTypeMismatch) {
		t.Fatalf("flush of a bad row: %v", err)
	}
	requireSameTable(t, got, want)
}

func TestRows(t *testing.T) {
	tb := MustNew("t", mixedSchema())
	batch := randomBatch(rand.New(rand.NewSource(9)), 100)
	if err := tb.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	rows, err := tb.Rows(10, 90)
	if err != nil || len(rows) != 80 {
		t.Fatalf("Rows(10,90): %d rows, %v", len(rows), err)
	}
	for k, r := range rows {
		want, _ := tb.Row(10 + k)
		for ci := range want {
			if !r[ci].Equal(want[ci]) {
				t.Fatalf("row %d column %d: %v, want %v", 10+k, ci, r[ci], want[ci])
			}
		}
	}
	for _, w := range [][2]int{{-1, 5}, {5, 101}, {9, 8}} {
		if _, err := tb.Rows(w[0], w[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Rows(%d,%d): %v", w[0], w[1], err)
		}
	}
}

// BenchmarkColumnWorkers is the measurement behind parallelCells: a 1 Mi-row
// load of the repository benchmark's 3-column schema from empty, check and
// apply per batch, with the columns on one goroutine and on two.
func BenchmarkColumnWorkers(b *testing.B) {
	schema := Schema{
		{Name: "v", Type: storage.Int64},
		{Name: "seq", Type: storage.Int64},
		{Name: "noise", Type: storage.Float64},
	}
	const tableRows = 1 << 20
	for _, n := range []int{256, 4096, 1 << 16} {
		cells := make([]storage.Value, 3*n)
		batch := make([][]storage.Value, n)
		for i := range batch {
			batch[i] = cells[3*i : 3*i+3 : 3*i+3]
			batch[i][0] = storage.IntValue(int64(i) * 7919 % 1000003)
			batch[i][1] = storage.IntValue(int64(i))
			batch[i][2] = storage.FloatValue(float64(i) / 3)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tb := MustNew("data", schema)
					for tb.NumRows() < tableRows {
						if err := tb.runColumns(workers, batch, checkColumn); err != nil {
							b.Fatal(err)
						}
						_ = tb.runColumns(workers, batch, appendColumn)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tableRows, "ns/row")
			})
		}
	}
}
