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

// ladderRung is the capacity a full column one row short of n takes to hold
// n rows: one step of append's growth.
func ladderRung(n int) int {
	if n == 0 {
		return 0
	}
	return cap(append(make([]int64, n-1), 0))
}

// requireCapacity holds a column that has just been read to the capacity
// rule: exactly its length, or at most one ladder rung above it — however
// its rows were batched, and whenever they were read.
func requireCapacity(t *testing.T, c *storage.Column) {
	t.Helper()
	got, n := cap(c.Codes()), c.Len()
	if c.Staged() != 0 {
		t.Fatalf("column %q: %d rows staged after Codes()", c.Name(), c.Staged())
	}
	if got > max(n, ladderRung(n)) {
		t.Fatalf("column %q: capacity %d for %d rows, more than one ladder rung (%d)", c.Name(), got, n, ladderRung(n))
	}
}

// requireSameTable compares two tables cell by cell, with NULL counts,
// code vectors and dictionary contents, and holds got to the capacity
// rule. It reads every column of both: nothing is staged afterwards.
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
		requireCapacity(t, g)
		gc, wc := g.Codes(), w.Codes()
		if len(gc) != len(wc) {
			t.Fatalf("column %q: %d codes, want %d", w.Name(), len(gc), len(wc))
		}
		for i := range wc {
			if gc[i] != wc[i] || !g.Value(i).Equal(w.Value(i)) {
				t.Fatalf("column %q row %d: got %v (code %d), want %v (code %d)",
					w.Name(), i, g.Value(i), gc[i], w.Value(i), wc[i])
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

// The reads a differential run interleaves between batches. Each is applied
// to the table under test and to the reference; all but readNone and
// readNulls consolidate at least one column, the others must work on
// staged rows as they are.
const (
	readNone   = iota // leave the batch staged
	readCodes         // Codes of every column: the full comparison
	readValue         // Value of the newest row, one column only
	readSet           // SetInt and SetFloat on the newest row
	readSeal          // SealDicts, later batches draw strings from the dictionary
	readNulls         // Len, NullCount, IsNull of new rows: no consolidation
	readRows          // Rows across the boundary between old and new rows
	readReject        // a batch with one bad cell: refused whole, nothing staged
	numReads
)

// appendDifferential feeds the same random batches to AppendRows and to the
// naive reference, applies reads[k%len(reads)] after batch k to both, and
// requires identical tables at the end (and wherever a read compares).
func appendDifferential(t *testing.T, seed int64, sizes, reads []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, want := MustNew("t", mixedSchema()), MustNew("t", mixedSchema())
	sealed := false
	for k, n := range sizes {
		before := want.NumRows()
		batch := randomBatch(rng, n)
		if sealed {
			useKnownStrings(rng, batch, want.ColumnAt(2))
		}
		if err := got.AppendRows(batch); err != nil {
			t.Fatalf("AppendRows(%d rows): %v", n, err)
		}
		if err := naiveAppend(want, batch); err != nil {
			t.Fatalf("reference: %v", err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("batch %d: %d rows, want %d", k, got.NumRows(), want.NumRows())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		last := want.NumRows() - 1
		switch read := reads[k%len(reads)]; {
		case read == readCodes:
			requireSameTable(t, got, want)
		case read == readSeal:
			got.SealDicts()
			want.SealDicts()
			sealed = true
		case read == readNulls:
			for ci := 0; ci < want.NumColumns(); ci++ {
				g, w := got.ColumnAt(ci), want.ColumnAt(ci)
				staged := g.Staged()
				if g.NullCount() != w.NullCount() || g.HasNulls() != w.HasNulls() {
					t.Fatalf("batch %d column %q: NullCount %d, want %d", k, w.Name(), g.NullCount(), w.NullCount())
				}
				for i := before; i <= last; i++ {
					if g.IsNull(i) != w.IsNull(i) {
						t.Fatalf("batch %d column %q row %d: IsNull %v", k, w.Name(), i, g.IsNull(i))
					}
				}
				if g.Staged() != staged {
					t.Fatalf("batch %d column %q: reading NULLs consolidated the column", k, w.Name())
				}
			}
		case read == readReject:
			bad := randomBatch(rng, 5)
			if sealed {
				useKnownStrings(rng, bad, want.ColumnAt(2))
			}
			bad[3][2] = storage.IntValue(1)
			staged := got.ColumnAt(0).Staged()
			if err := got.AppendRows(bad); !errors.Is(err, storage.ErrTypeMismatch) {
				t.Fatalf("batch %d: bad batch: %v", k, err)
			}
			if got.NumRows() != want.NumRows() || got.ColumnAt(0).Staged() != staged {
				t.Fatalf("batch %d: rejected batch left rows behind (%d rows, %d staged)", k, got.NumRows(), got.ColumnAt(0).Staged())
			}
		case last < 0:
			// The remaining reads need a row.
		case read == readValue:
			ci := k % want.NumColumns()
			if g, w := got.ColumnAt(ci).Value(last), want.ColumnAt(ci).Value(last); !g.Equal(w) {
				t.Fatalf("batch %d column %d row %d: Value %v, want %v", k, ci, last, g, w)
			}
		case read == readSet:
			for _, tb := range []*Table{got, want} {
				if err := tb.ColumnAt(0).SetInt(last, int64(k)-7); err != nil {
					t.Fatal(err)
				}
				if err := tb.ColumnAt(1).SetFloat(last, float64(k)/3); err != nil {
					t.Fatal(err)
				}
			}
		case read == readRows:
			lo, hi := max(0, before-3), min(want.NumRows(), before+3)
			g, err := got.Rows(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := want.Rows(lo, hi)
			for i := range w {
				for ci := range w[i] {
					if !g[i][ci].Equal(w[i][ci]) {
						t.Fatalf("batch %d: Rows(%d,%d) row %d column %d: %v, want %v", k, lo, hi, lo+i, ci, g[i][ci], w[i][ci])
					}
				}
			}
		}
	}
	requireSameTable(t, got, want)
}

// useKnownStrings rewrites a batch's string cells to values the column's
// dictionary holds (NULL when it holds none): what a sealed column accepts.
func useKnownStrings(rng *rand.Rand, batch [][]storage.Value, c *storage.Column) {
	known := c.Dict().Values()
	for _, r := range batch {
		switch {
		case r[2].IsNull():
		case len(known) == 0:
			r[2] = storage.NullValue(storage.String)
		default:
			r[2] = storage.StringValue(known[rng.Intn(len(known))])
		}
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
		{"chunk floor", []int{1, 255, 1024, 1, 1023, 1, 1025, 255}},
		{"bulk", []int{1 << 16, 255, 1, 1024}},
	}
	// Read patterns: after every batch, never before the end, and every
	// kind of read in two rotations (so each meets staged and consolidated
	// columns, sealed and unsealed dictionaries).
	patterns := [][]int{
		{readCodes},
		{readNone},
		{readNulls, readValue, readNone, readSet, readRows, readReject, readSeal, readNone, readValue},
		{readSeal, readNone, readReject, readRows, readNone, readSet, readNulls},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				for _, reads := range patterns {
					appendDifferential(t, seed, tc.sizes, reads)
				}
			})
		}
	}
}

func FuzzAppendRows(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(300), uint32(0))
	f.Add(int64(2), uint16(64), uint16(65), uint32(0x111))
	f.Add(int64(3), uint16(5000), uint16(1), uint32(0x120))
	f.Add(int64(4), uint16(0), uint16(4096), uint32(0x345))
	f.Add(int64(5), uint16(1024), uint16(255), uint32(0x264))
	f.Add(int64(6), uint16(1500), uint16(1023), uint32(0x573))
	f.Fuzz(func(t *testing.T, seed int64, a, b uint16, reads uint32) {
		// One read per batch, a nibble each.
		script := []int{int(reads & 15 % numReads), int(reads >> 4 & 15 % numReads), int(reads >> 8 & 15 % numReads)}
		appendDifferential(t, seed, []int{int(a) % 8192, int(b) % 8192, 1}, script)
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

// TestCapacityAfterReads: the same rows appended one at a time, 256 at a
// time and 64 Ki at a time, read after every batch, every so many or only
// at the end. Whatever the batching and the reads, a column that has been read
// holds exactly its rows or at most one ladder rung more; a column loaded
// from empty and read once holds exactly its rows; and the null bitmap,
// which is never staged, grows as the row-at-a-time reference's does.
func TestCapacityAfterReads(t *testing.T) {
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
	for _, tc := range []struct{ batch, readEvery int }{
		{1, 0}, {1, 9973}, {256, 0}, {256, 1}, {256, 37}, {1 << 16, 0}, {1 << 16, 1}, {1 << 16, 2},
	} {
		batch, readEvery := tc.batch, tc.readEvery
		tb := MustNew("t", mixedSchema())
		for k, lo := 0, 0; lo < n; k, lo = k+1, lo+batch {
			if err := tb.AppendRows(rows[lo:min(lo+batch, n)]); err != nil {
				t.Fatal(err)
			}
			if readEvery > 0 && k%readEvery == 0 {
				requireCapacity(t, tb.ColumnAt(k%3))
			}
		}
		for ci := 0; ci < tb.NumColumns(); ci++ {
			c := tb.ColumnAt(ci)
			requireCapacity(t, c)
			if readEvery == 0 && cap(c.Codes()) != n {
				t.Errorf("batch %d, column %q: loaded from empty and read once, capacity %d for %d rows", batch, c.Name(), cap(c.Codes()), n)
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
	if got.ColumnAt(0).Staged() != len(rows) {
		t.Fatalf("a loader that never reads left %d of %d rows staged", got.ColumnAt(0).Staged(), len(rows))
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
