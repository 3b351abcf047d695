package storage

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"adskip/internal/dict"
)

// stagedCodes returns the codes s holds for c, in batch order: those on
// the tail slot's spare capacity, then the new chunk's.
func stagedCodes(c *Column, s *StagedRows) []int64 {
	slot := c.tail()
	var out []int64
	for _, v := range []Vec{slot.Slice(slot.Len(), slot.Len()+s.onTail), s.chunk} {
		for i := 0; i < v.Len(); i++ {
			out = append(out, v.At(i))
		}
	}
	return out
}

// cells renders c's values, NULLs marked, for comparing columns cell by
// cell.
func cells(c *Column) []string {
	out := make([]string, c.Len())
	for i := range out {
		v := c.Value(i)
		out[i] = fmt.Sprintf("%v/%v", v.IsNull(), v)
	}
	return out
}

// TestStagedStringCodesAreCommitCodes: the code Stage gives a string is
// the code the string holds once the batch is committed — a known string
// its dictionary code, a new one the dictionary's length plus its
// first-seen rank in the batch — on an unsealed and on a sealed
// dictionary, with repeats and NULLs in the batch. A logged block that
// replays through provisional codes relies on it.
func TestStagedStringCodesAreCommitCodes(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		t.Run(fmt.Sprintf("sealed=%v", sealed), func(t *testing.T) {
			c := NewColumn("s", String)
			c.AppendRows(strRows("m", "c", "x", "a"), 0)
			if sealed {
				c.SealDict()
			}
			batch := strRows("x", "new-b", "", "a", "new-a", "new-b", "m", "", "x")
			batch[2][0], batch[7][0] = NullValue(String), NullValue(String)
			if sealed { // a sealed dictionary takes known strings only
				batch = strRows("x", "a", "", "a", "m", "c", "", "x")
				batch[2][0], batch[6][0] = NullValue(String), NullValue(String)
			}
			var s StagedRows
			if err := c.Stage(&s, batch, 0); err != nil {
				t.Fatal(err)
			}
			staged := stagedCodes(c, &s)
			base := c.Len()
			c.Commit(&s)
			for i, row := range batch {
				got := c.Vec().At(base + i)
				if row[0].IsNull() {
					if !c.IsNull(base + i) {
						t.Fatalf("row %d: NULL lost", i)
					}
					continue
				}
				if want, _ := c.Dict().Code(row[0].Str()); staged[i] != got || got != want {
					t.Fatalf("row %d (%q): staged code %d, committed %d, dictionary %d", i, row[0].Str(), staged[i], got, want)
				}
			}
		})
	}
}

// strRows builds one-cell String rows.
func strRows(vals ...string) [][]Value {
	rows := make([][]Value, len(vals))
	for i, v := range vals {
		rows[i] = []Value{StringValue(v)}
	}
	return rows
}

// TestBlockRoundTrip: a staged batch encoded as a block, read back and
// staged into another column commits to the same cells, whatever that
// column's width and dictionary codes; a block of committed rows does too;
// and a suffix of a block stages as the suffix of the batch.
func TestBlockRoundTrip(t *testing.T) {
	intRows := intBatch(700, true, 0)
	intRows[650][0] = IntValue(-5) // from row 650 on the batch needs 8-byte codes
	floats := make([][]Value, 300)
	for i := range floats {
		floats[i] = []Value{FloatValue(float64(i) - 0.5)}
		if i%7 == 3 {
			floats[i][0] = NullValue(Float64)
		}
	}
	floats[5][0] = FloatValue(math.Inf(-1))
	strs := strRows("q", "b", "q", "", "z", "b", "a")
	strs[3][0] = NullValue(String)
	for _, tc := range []struct {
		name string
		typ  Type
		pre  [][]Value // rows both columns hold before the batch
		rows [][]Value
	}{
		{"int narrow to wide", Int64, intBatch(10, false, 0), intRows},
		{"int onto a wide column", Int64, intBatch(3, false, 1<<40), intBatch(50, true, 7)},
		{"float", Float64, nil, floats},
		{"string", String, strRows("b", "zz"), strs},
		{"all NULL", String, nil, [][]Value{{NullValue(String)}, {NullValue(String)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := NewColumn("src", tc.typ), NewColumn("dst", tc.typ)
			if tc.typ == String { // the same strings under other codes
				for _, v := range []string{"zz", "q", "b", "z", "a"} {
					dst.Dict().Insert(v)
				}
				dst.SealDict()
			}
			if len(tc.pre) > 0 {
				src.AppendRows(tc.pre, 0)
				dst.AppendRows(tc.pre, 0)
			}
			var s StagedRows
			if err := src.Stage(&s, tc.rows, 0); err != nil {
				t.Fatal(err)
			}
			buf, blk := src.AppendBlock(nil, &s)
			src.Commit(&s)
			read, rest, err := ReadBlock(append(buf, 0xEE), len(tc.rows))
			if err != nil || len(rest) != 1 || string(read.Bytes()) != string(blk.Bytes()) {
				t.Fatalf("read back: %v, %d bytes left", err, len(rest))
			}
			for _, from := range []int{0, len(tc.rows) / 2} {
				d, skip := cloneColumn(t, dst), cloneColumn(t, dst)
				skip.AppendRows(tc.rows[:from], 0)
				if err := skip.StageBlock(&s, &read, from); err != nil {
					t.Fatal(err)
				}
				skip.Commit(&s)
				if err := d.StageBlock(&s, &read, 0); err != nil {
					t.Fatal(err)
				}
				d.Commit(&s)
				a, b, c := cells(src)[len(tc.pre):], cells(d)[len(tc.pre):], cells(skip)[len(tc.pre):]
				if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(a) != fmt.Sprint(c) {
					t.Fatalf("from %d:\nsource   %v\nreplayed %v\nsuffix   %v", from, a, b, c)
				}
				if d.Vec().Width() != src.Vec().Width() {
					t.Fatalf("replayed width %d, source %d", d.Vec().Width(), src.Vec().Width())
				}
			}
			_, whole := src.AppendRangeBlock(nil, len(tc.pre), src.Len())
			if string(whole.Bytes()) != string(blk.Bytes()) {
				t.Fatal("the committed rows encode differently from the staged ones")
			}
			lo, hi, nulls := read.CodeRange()
			t.Logf("%d NULLs, codes [%d, %d], %d bytes", nulls, lo, hi, len(read.Bytes()))
		})
	}
}

// cloneColumn copies c cell by cell, dictionary (codes and seal) included.
func cloneColumn(t *testing.T, c *Column) *Column {
	t.Helper()
	out := NewColumn(c.Name(), c.Type())
	if c.Type() == String {
		for _, s := range c.Dict().Values() {
			out.Dict().Insert(s)
		}
		if c.Dict().Sealed() {
			out.SealDict()
		}
	}
	rows := make([][]Value, c.Len())
	for i := range rows {
		rows[i] = []Value{c.Value(i)}
	}
	if len(rows) > 0 {
		out.AppendRows(rows, 0)
	}
	return out
}

// TestStageBlockRefusals: a block of another type, and a string a sealed
// dictionary lacks, are refused at staging, leaving the column as it was.
func TestStageBlockRefusals(t *testing.T) {
	src := NewColumn("s", String)
	var s StagedRows
	if err := src.Stage(&s, strRows("known", "unknown"), 0); err != nil {
		t.Fatal(err)
	}
	_, blk := src.AppendBlock(nil, &s)

	sealed := NewColumn("s", String)
	sealed.AppendRows(strRows("known"), 0)
	sealed.SealDict()
	if err := sealed.StageBlock(&s, &blk, 0); !errors.Is(err, dict.ErrSealed) {
		t.Fatalf("unknown string into a sealed dictionary: %v", err)
	}
	if err := sealed.StageBlock(&s, &blk, 1); !errors.Is(err, dict.ErrSealed) {
		t.Fatalf("suffix with an unknown string: %v", err)
	}
	if err := NewColumn("i", Int64).StageBlock(&s, &blk, 0); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("string block into an Int64 column: %v", err)
	}
	if sealed.Len() != 1 || sealed.Dict().Len() != 1 {
		t.Fatalf("refused block changed the column: %d rows, %d strings", sealed.Len(), sealed.Dict().Len())
	}
	// A string only the skipped prefix references is never looked up.
	if err := src.Stage(&s, strRows("unknown", "known"), 0); err != nil {
		t.Fatal(err)
	}
	_, blk = src.AppendBlock(nil, &s)
	if err := sealed.StageBlock(&s, &blk, 1); err != nil {
		t.Fatalf("suffix of known strings: %v", err)
	}
	sealed.Commit(&s)
	if sealed.Len() != 2 || sealed.Value(1).Str() != "known" {
		t.Fatalf("suffix replay: %d rows, last %v", sealed.Len(), sealed.Value(1))
	}
}

// TestReadBlockRejects: every malformed block is an error, never a panic.
func TestReadBlockRejects(t *testing.T) {
	good := func(typ Type, rows [][]Value) []byte {
		c := NewColumn("c", typ)
		var s StagedRows
		if err := c.Stage(&s, rows, 0); err != nil {
			t.Fatal(err)
		}
		b, _ := c.AppendBlock(nil, &s)
		return b
	}
	ints := intBatch(4, false, 0)
	ints[1][0] = NullValue(Int64)
	mutate := func(b []byte, fn func([]byte)) []byte {
		b = append([]byte(nil), b...)
		fn(b)
		return b
	}
	intBlock, strBlock := good(Int64, ints), good(String, strRows("a", "b"))
	floatBlock := good(Float64, [][]Value{{FloatValue(1)}})
	nan := mutate(floatBlock, func(b []byte) { copy(b[6:], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) })
	for name, tc := range map[string]struct {
		b []byte
		n int
	}{
		"empty":                       {nil, 4},
		"unknown type":                {mutate(intBlock, func(b []byte) { b[0] = 9 }), 4},
		"odd width":                   {mutate(intBlock, func(b []byte) { b[1] = 5 }), 4},
		"float at 4 bytes":            {mutate(floatBlock, func(b []byte) { b[1] = 4 }), 1},
		"more NULLs than rows":        {mutate(intBlock, func(b []byte) { b[2] = 5 }), 4},
		"NULL row out of range":       {mutate(intBlock, func(b []byte) { b[6] = 4 }), 4},
		"NULL row with a code":        {mutate(intBlock, func(b []byte) { b[14] = 1 }), 4},
		"codes cut short":             {intBlock[:len(intBlock)-1], 4},
		"more rows claimed":           {intBlock, 5},
		"NaN":                         {nan, 1},
		"string index past the table": {mutate(strBlock, func(b []byte) { b[10] = 2 }), 2},
		"string table cut short":      {strBlock[:len(strBlock)-1], 2},
	} {
		if _, _, err := ReadBlock(tc.b, tc.n); !errors.Is(err, ErrBadBlock) {
			t.Errorf("%s: %v", name, err)
		}
	}
}
