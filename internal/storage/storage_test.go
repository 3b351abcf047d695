package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"adskip/internal/dict"
)

func TestTypeString(t *testing.T) {
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" || String.String() != "VARCHAR" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func TestEncodeFloat64Order(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -1e308, -42.5, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 0.5, 1, 42.5, 1e308, math.Inf(1),
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			ci, cj := EncodeFloat64(vals[i]), EncodeFloat64(vals[j])
			if (vals[i] < vals[j]) != (ci < cj) {
				t.Fatalf("order broken: %g->%d vs %g->%d", vals[i], ci, vals[j], cj)
			}
		}
	}
	if EncodeFloat64(math.Copysign(0, -1)) != EncodeFloat64(0) {
		t.Fatal("-0 and +0 should share a code")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		got := DecodeFloat64(EncodeFloat64(v))
		if v == 0 {
			return got == 0
		}
		return got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloatOrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ca, cb := EncodeFloat64(a), EncodeFloat64(b)
		switch {
		case a < b:
			return ca < cb
		case a > b:
			return ca > cb
		default:
			return ca == cb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValueBasics(t *testing.T) {
	v := IntValue(7)
	if v.Type() != Int64 || v.Int() != 7 || v.IsNull() || v.String() != "7" {
		t.Fatalf("IntValue wrong: %+v", v)
	}
	n := NullValue(Float64)
	if !n.IsNull() || n.String() != "NULL" {
		t.Fatalf("NullValue wrong: %+v", n)
	}
	if !FloatValue(1.5).Equal(FloatValue(1.5)) || FloatValue(1.5).Equal(FloatValue(2)) {
		t.Fatal("Float Equal wrong")
	}
	if StringValue("a").Equal(IntValue(0)) {
		t.Fatal("cross-type Equal should be false")
	}
	if !NullValue(Int64).Equal(NullValue(Int64)) {
		t.Fatal("NULL should Equal NULL at the Value layer")
	}
	if NullValue(Int64).Equal(IntValue(0)) {
		t.Fatal("NULL should not Equal 0")
	}
	if StringValue("x").String() != "x" || FloatValue(2.5).String() != "2.5" {
		t.Fatal("String rendering wrong")
	}
}

func TestIntColumnAppendAndRead(t *testing.T) {
	c := NewColumn("a", Int64)
	for i := int64(0); i < 10; i++ {
		if err := c.AppendInt(i * 3); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 10 || c.NullCount() != 0 || c.HasNulls() {
		t.Fatalf("Len=%d nulls=%d", c.Len(), c.NullCount())
	}
	if got := c.Value(4); !got.Equal(IntValue(12)) {
		t.Fatalf("Value(4)=%v want 12", got)
	}
	if c.Name() != "a" || c.Type() != Int64 {
		t.Fatal("metadata wrong")
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	c := NewColumn("a", Int64)
	if err := c.AppendFloat(1); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("AppendFloat on int col: %v", err)
	}
	if err := c.AppendString("x"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("AppendString on int col: %v", err)
	}
	if err := c.Stage(new(StagedRows), [][]Value{{FloatValue(1)}}, 0); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Stage float on int col: %v", err)
	}
	f := NewColumn("f", Float64)
	if err := f.AppendFloat(math.NaN()); !errors.Is(err, ErrNaN) {
		t.Fatalf("NaN append: %v", err)
	}
}

func TestFloatColumnOrderedCodes(t *testing.T) {
	c := NewColumn("f", Float64)
	vals := []float64{3.5, -2, 0, 100, -1e9}
	for _, v := range vals {
		if err := c.AppendFloat(v); err != nil {
			t.Fatal(err)
		}
	}
	codes := c.Codes()
	idx := []int{0, 1, 2, 3, 4}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	for k := 1; k < len(idx); k++ {
		if codes[idx[k-1]] >= codes[idx[k]] {
			t.Fatalf("codes not value-ordered: %v", codes)
		}
	}
	for i, v := range vals {
		if got := c.Value(i); got.Float() != v {
			t.Fatalf("Value(%d)=%v want %g", i, got, v)
		}
	}
}

func TestStringColumnSealRewritesCodes(t *testing.T) {
	c := NewColumn("s", String)
	words := []string{"pear", "apple", "mango", "apple", "zebra"}
	for _, w := range words {
		if err := c.AppendString(w); err != nil {
			t.Fatal(err)
		}
	}
	if c.DictSorted() {
		t.Fatal("unsealed dict reported sorted")
	}
	remap := c.SealDict()
	if remap == nil || !c.DictSorted() {
		t.Fatal("SealDict did not seal")
	}
	for i, w := range words {
		if got := c.Value(i); got.Str() != w {
			t.Fatalf("after seal Value(%d)=%q want %q", i, got.Str(), w)
		}
	}
	// Codes must now be in lexicographic order of the words.
	codes := c.Codes()
	for i := 0; i < len(words); i++ {
		for j := 0; j < len(words); j++ {
			if (words[i] < words[j]) != (codes[i] < codes[j]) {
				t.Fatalf("codes not order-preserving after seal")
			}
		}
	}
	if c.SealDict() != nil {
		t.Fatal("second SealDict should be a no-op returning nil")
	}
	if err := c.AppendString("new-word"); !errors.Is(err, dict.ErrSealed) {
		t.Fatalf("append unknown string after seal: %v", err)
	}
	if err := c.AppendString("apple"); err != nil {
		t.Fatalf("append known string after seal: %v", err)
	}
}

func TestNulls(t *testing.T) {
	c := NewColumn("a", Int64)
	c.AppendInt(1)
	c.AppendNull()
	c.AppendInt(3)
	c.AppendNull()
	if c.Len() != 4 || c.NullCount() != 2 || !c.HasNulls() {
		t.Fatalf("Len=%d NullCount=%d", c.Len(), c.NullCount())
	}
	if c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) || !c.IsNull(3) {
		t.Fatal("null positions wrong")
	}
	if !c.Value(1).IsNull() {
		t.Fatal("Value at null row not NULL")
	}
	nulls := c.Nulls()
	if nulls == nil || nulls.Count() != 2 {
		t.Fatal("Nulls bitmap wrong")
	}
}

func TestNullsOnlyColumnBitmapNilWhenNone(t *testing.T) {
	c := NewColumn("a", Int64)
	c.AppendInt(1)
	if c.Nulls() != nil {
		t.Fatal("Nulls should be nil with no NULL rows")
	}
}

func TestEncodeValue(t *testing.T) {
	ci := NewColumn("i", Int64)
	code, ok, err := ci.EncodeValue(IntValue(9))
	if err != nil || !ok || code != 9 {
		t.Fatalf("int encode: %d %v %v", code, ok, err)
	}
	if _, _, err := ci.EncodeValue(NullValue(Int64)); err == nil {
		t.Fatal("encoding NULL should error")
	}
	if _, _, err := ci.EncodeValue(StringValue("x")); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("cross-type encode: %v", err)
	}
	cf := NewColumn("f", Float64)
	if _, _, err := cf.EncodeValue(FloatValue(math.NaN())); !errors.Is(err, ErrNaN) {
		t.Fatalf("NaN encode: %v", err)
	}
	cs := NewColumn("s", String)
	cs.AppendString("a")
	if _, ok, err := cs.EncodeValue(StringValue("zzz")); err != nil || ok {
		t.Fatalf("absent string should be ok=false: %v %v", ok, err)
	}
	if code, ok, _ := cs.EncodeValue(StringValue("a")); !ok || code != 0 {
		t.Fatalf("present string: code=%d ok=%v", code, ok)
	}
}

// Property: a column round-trips arbitrary int sequences with interspersed
// nulls.
func TestQuickColumnRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewColumn("x", Int64)
		n := rng.Intn(300)
		ref := make([]*int64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				c.AppendNull()
			} else {
				v := rng.Int63n(1000) - 500
				ref[i] = &v
				if err := c.AppendInt(v); err != nil {
					return false
				}
			}
		}
		if c.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			got := c.Value(i)
			if ref[i] == nil {
				if !got.IsNull() {
					return false
				}
			} else if got.IsNull() || got.Int() != *ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// AppendRows stages and commits cell col of every row: a whole append, for
// tests with one column and nothing to do in between (the table stages
// every column before it commits any).
func (c *Column) AppendRows(rows [][]Value, col int) {
	var s StagedRows
	if err := c.Stage(&s, rows, col); err != nil {
		panic(err)
	}
	c.Commit(&s)
}

// intBatch builds n single-cell Int64 rows over one backing array, row i
// holding from+i, every 500th NULL if nulls is set.
func intBatch(n int, nulls bool, from int64) [][]Value {
	cells := make([]Value, n)
	rows := make([][]Value, n)
	for i := range rows {
		cells[i] = IntValue(from + int64(i))
		if nulls && i%500 == 499 {
			cells[i] = NullValue(Int64)
		}
		rows[i] = cells[i : i+1 : i+1]
	}
	return rows
}

// widths are the two physical layouts of an Int64 column: values from 0 on
// stay 4-byte codes, values from 2^40 on are 8-byte codes from the first row.
var widths = []struct {
	name  string
	from  int64
	bytes int
}{{"narrow", 0, 4}, {"wide", 1 << 40, 8}}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCapacityStagedSlack: whatever mix of batch sizes is appended without
// a read in between, only the last pending chunk has room left, less than
// one chunkFloor of it; Len counts every staged row; and one Vec() turns
// the lot into a single vector of exactly rows x width bytes with every row
// in place — at either width.
func TestCapacityStagedSlack(t *testing.T) {
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			sizes := []int{1, 255, 1024, 1 << 16, 1, 1, 1023, 1025, 300}
			for k := 0; k < 40; k++ {
				sizes = append(sizes, 1+rng.Intn(3000))
			}
			c := NewColumn("a", Int64)
			rows := intBatch(1<<16, true, w.from)
			want := 0
			for _, n := range sizes {
				c.AppendRows(rows[:n], 0)
				want += n
				if c.Len() != want || c.Staged() != want {
					t.Fatalf("after %d rows: Len %d, Staged %d", want, c.Len(), c.Staged())
				}
				for i, chunk := range c.pending {
					spare := chunk.capacity() - chunk.Len()
					if spare >= chunkFloor || (spare > 0 && i != len(c.pending)-1) {
						t.Fatalf("after %d rows: chunk %d of %d has %d unused slots", want, i, len(c.pending), spare)
					}
				}
			}
			v := c.Vec()
			if v.Len() != want || v.capacity()*v.Width() != want*w.bytes || c.Staged() != 0 || c.pending != nil {
				t.Fatalf("after Vec(): len %d, %d bytes, staged %d, want %d rows in one vector of %d bytes",
					v.Len(), v.capacity()*v.Width(), c.Staged(), want, want*w.bytes)
			}
			at := 0
			for _, n := range sizes {
				for i := 0; i < n; i++ {
					if null := i%500 == 499; c.IsNull(at+i) != null || (!null && v.At(at+i) != w.from+int64(i)) {
						t.Fatalf("row %d (row %d of its batch): code %d, null %v", at+i, i, v.At(at+i), c.IsNull(at+i))
					}
				}
				at += n
			}
		})
	}
}

// ladderAllocated reports the bytes append's own growth ladder allocates to
// reach n elements of T.
func ladderAllocated[T Code](n int) uint64 {
	var ladder []T
	return allocated(func() {
		for len(ladder) < n {
			ladder = append(ladder[:cap(ladder)], 0)
		}
	})
}

// TestCapacityAllocationAmortised guards the copy amplification of a load
// with a deterministic count instead of a timing, at both widths. A 2 Mi-row
// column loaded in 64 Ki batches and read once allocates each row's slot
// twice (its chunk, then the consolidated vector) and nothing else of size:
// the growth ladder this replaced allocated about six times the column. And
// 256-row batches with a read after each — the trickle that cannot be
// staged for long — still allocate no more than append's own ladder does
// for the same rows at the same width.
func TestCapacityAllocationAmortised(t *testing.T) {
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) {
			const bulkRows, bulkBatch = 1 << 21, 1 << 16
			rows := intBatch(bulkBatch, false, w.from)
			c := NewColumn("a", Int64)
			bulk := allocated(func() {
				for c.Len() < bulkRows {
					c.AppendRows(rows, 0)
				}
				c.Vec()
			})
			if limit := uint64(21 * w.bytes * bulkRows / 10); bulk > limit {
				t.Errorf("bulk load of %d rows allocated %d bytes, want <= %d (2.1 x %d B x rows)", bulkRows, bulk, limit, w.bytes)
			}

			const trickleRows, trickleBatch = 300_000, 256
			ladderTotal := ladderAllocated[uint32](trickleRows)
			if w.bytes == 8 {
				ladderTotal = ladderAllocated[int64](trickleRows)
			}
			c = NewColumn("a", Int64)
			trickle := allocated(func() {
				for c.Len() < trickleRows {
					c.AppendRows(rows[:trickleBatch], 0)
					c.Vec()
				}
			})
			if trickle > ladderTotal {
				t.Errorf("%d-row batches with a read after each allocated %d bytes for %d rows, append's ladder %d", trickleBatch, trickle, trickleRows, ladderTotal)
			}
			if got := c.Vec().Width(); got != w.bytes {
				t.Errorf("code width %d, want %d", got, w.bytes)
			}
			column := float64(w.bytes)
			t.Logf("bulk %.2f x column, trickle %.2f x column (append's ladder %.2f x)",
				float64(bulk)/(column*bulkRows), float64(trickle)/(column*trickleRows), float64(ladderTotal)/(column*trickleRows))
		})
	}
}

// TestEscalation: an Int64 column stores 4-byte codes until one value does
// not fit, is rewritten as 8-byte codes exactly once — wherever that value
// arrives: first, middle or last in a staged batch, in a batch that lands
// on the vector's spare tail, through AppendInt — and keeps
// every earlier row, NULLs included. The rewritten vector is exactly as
// long as its rows (AppendInt then grows it by append's own rung).
func TestEscalation(t *testing.T) {
	const base, n = 3000, 9 // rows before the batch, rows in it
	for _, outlier := range []int64{-1, 1 << 32, math.MinInt64} {
		for _, tc := range []struct {
			name  string
			slack bool // read the column first, leaving the batch room on its tail
			write func(c *Column, batch [][]Value)
		}{
			{"chunk head", false, func(c *Column, b [][]Value) { b[0][0] = IntValue(outlier); c.AppendRows(b, 0) }},
			{"chunk mid", false, func(c *Column, b [][]Value) { b[n/2][0] = IntValue(outlier); c.AppendRows(b, 0) }},
			{"chunk last", false, func(c *Column, b [][]Value) { b[n-1][0] = IntValue(outlier); c.AppendRows(b, 0) }},
			{"tail mid", true, func(c *Column, b [][]Value) { b[n/2][0] = IntValue(outlier); c.AppendRows(b, 0) }},
			{"AppendInt", true, func(c *Column, b [][]Value) {
				b[n-1][0] = IntValue(outlier)
				c.AppendRows(b[:n-1], 0)
				if err := c.AppendInt(outlier); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, outlier), func(t *testing.T) {
				c := NewColumn("a", Int64)
				first := intBatch(base, true, 0)
				c.AppendRows(first[:base-1], 0)
				if tc.slack {
					c.Vec()
					c.AppendRows(first[base-1:], 0) // one more row and a read: a ladder rung, so room for the batch
				} else {
					c.AppendRows(first[base-1:], 0)
				}
				if v := c.Vec(); v.Width() != 4 || (tc.slack && v.capacity() < base+n) {
					t.Fatalf("before the outlier: %d-byte codes, capacity %d for %d rows", v.Width(), v.capacity(), v.Len())
				}
				if !tc.slack {
					c.AppendRows(intBatch(chunkFloor, false, 7), 0) // a staged narrow chunk with no room left
					first = append(first, intBatch(chunkFloor, false, 7)...)
				}
				batch := intBatch(n, false, 100)
				batch[1][0] = NullValue(Int64)
				tc.write(c, batch)
				want := append(first, batch...)
				v := c.Vec()
				if v.Width() != 8 || v.Len() != len(want) || (v.capacity() != v.Len() && tc.name != "AppendInt") {
					t.Fatalf("%d-byte codes, %d rows in capacity %d; want 8-byte codes, %d rows, no slack", v.Width(), v.Len(), v.capacity(), len(want))
				}
				for i, r := range want {
					if got := c.Value(i); !got.Equal(r[0]) {
						t.Fatalf("row %d: %v, want %v", i, got, r[0])
					}
				}
				// Wide from here on: small values arrive as 8-byte codes.
				c.AppendRows(intBatch(n, false, 0), 0)
				if v := c.Vec(); v.Width() != 8 || v.At(len(want)+1) != 1 {
					t.Fatalf("after the outlier: %d-byte codes, row %d holds %d", v.Width(), len(want)+1, v.At(len(want)+1))
				}
			})
		}
	}
}

// TestStageLeavesPublishedSlotsAlone: a batch whose middle row does not fit
// a 4-byte code, staged onto a pending chunk's remainder and onto the
// vector's spare tail. Dropped, it leaves the column's fields as they were;
// committed, the slot other rows occupied is closed at the last row that
// fitted — no chunk but the last ever has room — the rest of the batch sits
// in a wide chunk, and one read gives 8-byte codes with no slack.
func TestStageLeavesPublishedSlotsAlone(t *testing.T) {
	const base, n = 3000, 9
	for _, tail := range []bool{false, true} {
		c := NewColumn("a", Int64)
		c.AppendRows(intBatch(base, true, 0), 0)
		c.Vec()
		c.AppendRows(intBatch(1, false, base), 0) // a chunkFloor chunk with room left ...
		if tail {
			c.Vec() // ... or, read, a ladder rung with a spare tail
		}
		batch := intBatch(n, false, base+1)
		batch[1][0], batch[n/2][0] = NullValue(Int64), IntValue(1<<32)
		before, chunks, nNull := *c, len(c.pending), c.nNull
		if err := c.Stage(new(StagedRows), batch, 0); err != nil {
			t.Fatal(err)
		}
		if c.vec.Len() != before.vec.Len() || c.vec.capacity() != before.vec.capacity() || len(c.pending) != chunks ||
			c.staged != before.staged || c.wide || c.nNull != nNull || c.Len() != base+1 ||
			(chunks > 0 && (c.pending[0].Len() != 1 || c.pending[0].capacity() != chunkFloor)) {
			t.Fatalf("tail=%v: a batch staged and dropped changed the column: %+v, was %+v", tail, *c, before)
		}
		c.AppendRows(batch, 0)
		if c.Len() != base+1+n || !c.wide || c.vec.W != nil || c.nNull != nNull+1 {
			t.Fatalf("tail=%v: after commit: %d rows, wide %v, vector %d-byte, %d NULLs", tail, c.Len(), c.wide, c.vec.Width(), c.nNull)
		}
		for i, chunk := range c.pending {
			if last := i == len(c.pending)-1; (chunk.W != nil) != last || (!last && chunk.capacity() != chunk.Len()) {
				t.Fatalf("tail=%v: chunk %d of %d: %d-byte codes, %d rows in capacity %d", tail, i, len(c.pending), chunk.Width(), chunk.Len(), chunk.capacity())
			}
		}
		if v := c.Vec(); v.Width() != 8 || v.capacity() != v.Len() || v.At(base+1+n/2) != 1<<32 || v.At(base+n) != int64(base+n) || !c.IsNull(base+2) {
			t.Fatalf("tail=%v: after a read: %d-byte codes, %d rows in capacity %d", tail, v.Width(), v.Len(), v.capacity())
		}
	}
}

// TestCodesCompat: Codes, the one []int64 accessor left (for the repository
// benchmark's scan rung), aliases a wide vector and returns a widened copy
// of a narrow one, NULL slots and all.
func TestCodesCompat(t *testing.T) {
	for _, w := range widths {
		c := NewColumn("a", Int64)
		c.AppendRows(intBatch(1200, true, w.from), 0)
		v, codes := c.Vec(), c.Codes()
		if v.Width() != w.bytes || len(codes) != v.Len() {
			t.Fatalf("%s: %d-byte codes, %d of %d rows", w.name, v.Width(), len(codes), v.Len())
		}
		for i, code := range codes {
			if code != v.At(i) {
				t.Fatalf("%s: Codes()[%d] = %d, the vector holds %d", w.name, i, code, v.At(i))
			}
		}
		if aliases := len(v.W) > 0 && &codes[0] == &v.W[0]; aliases != (w.bytes == 8) {
			t.Fatalf("%s: Codes() aliases the vector: %v", w.name, aliases)
		}
	}
	if codes := NewColumn("a", Int64).Codes(); len(codes) != 0 {
		t.Fatalf("empty column: %d codes", len(codes))
	}
}
