package storage

import (
	"errors"
	"math"
	"math/rand"
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
	if err := c.CheckRows([][]Value{{FloatValue(1)}}, 0); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("CheckRows float on int col: %v", err)
	}
	f := NewColumn("f", Float64)
	if err := f.AppendFloat(math.NaN()); !errors.Is(err, ErrNaN) {
		t.Fatalf("NaN append: %v", err)
	}
	if err := f.SetFloat(0, math.NaN()); !errors.Is(err, ErrNaN) {
		t.Fatalf("NaN set: %v", err)
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
	// Overwriting a null row clears the flag.
	if err := c.SetInt(1, 42); err != nil {
		t.Fatal(err)
	}
	if c.IsNull(1) || c.NullCount() != 1 {
		t.Fatal("SetInt did not clear null")
	}
	if got := c.Value(1); got.Int() != 42 {
		t.Fatalf("Value(1)=%v", got)
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

// TestTruncateNullBitmap is the regression test for rollback: Truncate
// used to rebuild the null bitmap bit by bit over every kept row. NULLs
// sit on both sides of a bitmap word boundary and of the cut; after the
// cut the column must equal one that never held the dropped rows, and
// appends after it must not see the dropped NULLs.
func TestTruncateNullBitmap(t *testing.T) {
	nullAt := func(i int) bool { return i%7 == 0 || i == 63 || i == 64 || i == 127 || i == 128 }
	build := func(n int) *Column {
		c := NewColumn("a", Int64)
		for i := 0; i < n; i++ {
			if nullAt(i) {
				c.AppendNull()
			} else {
				c.AppendInt(int64(i))
			}
		}
		return c
	}
	for _, cut := range []int{0, 1, 63, 64, 65, 100, 128, 129, 199, 200} {
		c, want := build(200), build(cut)
		c.Truncate(cut)
		if c.Len() != want.Len() || c.NullCount() != want.NullCount() {
			t.Fatalf("cut %d: len %d nulls %d, want %d and %d", cut, c.Len(), c.NullCount(), want.Len(), want.NullCount())
		}
		// Refill past the old length: no dropped NULL may reappear.
		for i := cut; i < 260; i++ {
			c.AppendInt(int64(-i))
			want.AppendInt(int64(-i))
		}
		if c.NullCount() != want.NullCount() {
			t.Fatalf("cut %d: %d NULLs after refill, want %d", cut, c.NullCount(), want.NullCount())
		}
		for i := 0; i < want.Len(); i++ {
			if c.IsNull(i) != want.IsNull(i) || (!c.IsNull(i) && c.Codes()[i] != want.Codes()[i]) {
				t.Fatalf("cut %d: row %d differs after refill (null %v, want %v)", cut, i, c.IsNull(i), want.IsNull(i))
			}
		}
	}
}
