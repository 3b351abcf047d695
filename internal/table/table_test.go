package table

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adskip/internal/storage"
)

func demoSchema() Schema {
	return Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "city", Type: storage.String},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", Schema{{Name: "", Type: storage.Int64}}); err == nil {
		t.Fatal("empty column name accepted")
	}
	if _, err := New("t", Schema{{Name: "a", Type: storage.Int64}, {Name: "a", Type: storage.Float64}}); !errors.Is(err, ErrColumnExists) {
		t.Fatalf("duplicate column: %v", err)
	}
	tb, err := New("t", demoSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name() != "t" || tb.NumColumns() != 3 || tb.NumRows() != 0 {
		t.Fatal("metadata wrong")
	}
	s := tb.Schema()
	if len(s) != 3 || s[2].Name != "city" || s[2].Type != storage.String {
		t.Fatalf("Schema=%v", s)
	}
}

func TestAppendRowAndRead(t *testing.T) {
	tb := MustNew("t", demoSchema())
	rows := [][]storage.Value{
		{storage.IntValue(1), storage.FloatValue(9.5), storage.StringValue("oslo")},
		{storage.IntValue(2), storage.NullValue(storage.Float64), storage.StringValue("rome")},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows=%d", tb.NumRows())
	}
	got, err := tb.Row(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(storage.IntValue(2)) || !got[1].IsNull() || got[2].Str() != "rome" {
		t.Fatalf("Row(1)=%v", got)
	}
	if _, err := tb.Row(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Row(5): %v", err)
	}
	if _, err := tb.Row(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Row(-1): %v", err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRowErrors(t *testing.T) {
	tb := MustNew("t", demoSchema())
	if err := tb.AppendRow(storage.IntValue(1)); !errors.Is(err, ErrRowArity) {
		t.Fatalf("arity: %v", err)
	}
	bad := []storage.Value{storage.IntValue(1), storage.StringValue("x"), storage.StringValue("y")}
	if _, err := tb.Stage([][]storage.Value{bad}); !errors.Is(err, storage.ErrTypeMismatch) {
		t.Fatalf("Stage: %v", err)
	}
	good := []storage.Value{storage.IntValue(1), storage.NullValue(storage.Float64), storage.StringValue("y")}
	if _, err := tb.Stage([][]storage.Value{good}); err != nil {
		t.Fatalf("Stage good row: %v", err)
	}
	if c, _ := tb.Column("city"); tb.NumRows() != 0 || c.Dict().Len() != 0 || tb.ColumnAt(1).NullCount() != 0 {
		t.Fatalf("Stage without Commit changed the table: %d rows, %d strings, %d NULLs", tb.NumRows(), c.Dict().Len(), tb.ColumnAt(1).NullCount())
	}
}

// TestRowLimit: a batch that would take a table past MaxRows rows is
// refused whole, by the check every append path, Replay and StageGather
// share, with an error naming the limit; one that reaches it exactly
// passes. stage takes the batch's row count from its caller, so the
// boundary is tested with empty batches, without allocating the rows.
func TestRowLimit(t *testing.T) {
	if math.MaxInt < MaxRows {
		t.Skip("an int counts fewer rows than MaxRows")
	}
	limit := uint64(MaxRows)
	tb := MustNew("t", demoSchema())
	if err := tb.AppendRow(storage.IntValue(1), storage.FloatValue(2), storage.StringValue("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.stage(int(limit-1), &batch{}); err != nil {
		t.Fatalf("a batch that fills the table to %d rows: %v", limit, err)
	}
	_, err := tb.stage(int(limit), &batch{})
	if !errors.Is(err, ErrTooManyRows) || !strings.Contains(err.Error(), "limit of 4294967295") {
		t.Fatalf("a batch one row past the limit: %v, want ErrTooManyRows naming the limit", err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("the refused batch changed the table: %d rows", tb.NumRows())
	}
}

func TestColumnLookup(t *testing.T) {
	tb := MustNew("t", demoSchema())
	c, err := tb.Column("price")
	if err != nil || c.Type() != storage.Float64 {
		t.Fatalf("Column: %v %v", c, err)
	}
	if _, err := tb.Column("nope"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("missing column: %v", err)
	}
	if tb.ColumnAt(0).Name() != "id" {
		t.Fatal("ColumnAt wrong")
	}
}

// sealDicts seals every string column's dictionary, as enabling skipping
// does.
func sealDicts(tbs ...*Table) {
	for _, tb := range tbs {
		for _, c := range tb.columns {
			c.SealDict()
		}
	}
}

func TestSealDicts(t *testing.T) {
	tb := MustNew("t", demoSchema())
	tb.AppendRow(storage.IntValue(1), storage.FloatValue(1), storage.StringValue("zeta"))
	tb.AppendRow(storage.IntValue(2), storage.FloatValue(2), storage.StringValue("alpha"))
	sealDicts(tb)
	c, _ := tb.Column("city")
	if !c.DictSorted() {
		t.Fatal("dict not sealed")
	}
	if c.Value(0).Str() != "zeta" || c.Value(1).Str() != "alpha" {
		t.Fatal("values corrupted by seal")
	}
}

func roundTrip(t *testing.T, tb *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	tb := MustNew("sales", demoSchema())
	tb.AppendRow(storage.IntValue(10), storage.FloatValue(-2.5), storage.StringValue("oslo"))
	tb.AppendRow(storage.NullValue(storage.Int64), storage.FloatValue(7), storage.StringValue("rome"))
	tb.AppendRow(storage.IntValue(30), storage.NullValue(storage.Float64), storage.StringValue("oslo"))
	sealDicts(tb)

	got := roundTrip(t, tb)
	if got.Name() != "sales" || got.NumRows() != 3 || got.NumColumns() != 3 {
		t.Fatalf("shape: %s %d %d", got.Name(), got.NumRows(), got.NumColumns())
	}
	for i := 0; i < 3; i++ {
		a, _ := tb.Row(i)
		b, _ := got.Row(i)
		for ci := range a {
			if !a[ci].Equal(b[ci]) {
				t.Fatalf("row %d col %d: %v vs %v", i, ci, a[ci], b[ci])
			}
		}
	}
	c, _ := got.Column("city")
	if !c.DictSorted() {
		t.Fatal("seal state not preserved")
	}
	// Codes must be identical (not just values) so skippers built before a
	// save remain valid after a load.
	origCity, _ := tb.Column("city")
	for i, code := range origCity.Codes() {
		if c.Codes()[i] != code {
			t.Fatal("string codes changed across round trip")
		}
	}
}

func TestCodecUnsealedDict(t *testing.T) {
	tb := MustNew("t", Schema{{Name: "s", Type: storage.String}})
	tb.AppendRow(storage.StringValue("b"))
	tb.AppendRow(storage.StringValue("a"))
	// A table that was never read: the snapshot writer is the first reader.
	if n := tb.ColumnAt(0).Staged(); n != 2 {
		t.Fatalf("%d rows staged before the snapshot, want 2", n)
	}
	got := roundTrip(t, tb)
	c, _ := got.Column("s")
	if c.DictSorted() {
		t.Fatal("unsealed dict came back sealed")
	}
	if c.Value(0).Str() != "b" || c.Value(1).Str() != "a" {
		t.Fatal("values wrong")
	}
}

func TestCodecEmptyTable(t *testing.T) {
	tb := MustNew("empty", demoSchema())
	got := roundTrip(t, tb)
	if got.NumRows() != 0 || got.NumColumns() != 3 {
		t.Fatal("empty table round trip wrong")
	}
}

// frameBytes is the size of a frame holding a payload of n bytes.
func frameBytes(n int) int { return 8 + n }

func TestCodecCorruption(t *testing.T) {
	tb := MustNew("t", demoSchema())
	tb.AppendRow(storage.IntValue(1), storage.FloatValue(2), storage.StringValue("x"))
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte -> checksum error.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := Read(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped byte: %v", err)
	}

	// Damage the magic -> bad magic.
	corrupt = append([]byte(nil), raw...)
	corrupt[0] = 'X'
	if _, err := Read(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	// Cut at a frame boundary, the closing frame gone -> corrupt.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-frameBytes(closingLen)])); !errors.Is(err, ErrChecksum) {
		t.Fatalf("closing frame cut off: %v", err)
	}

	// Truncate -> bad magic or read error, never a panic.
	for _, cut := range []int{0, 5, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated to %d bytes: no error", cut)
		}
	}
}

// Property: arbitrary tables round-trip exactly.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := MustNew("q", demoSchema())
		n := rng.Intn(150)
		for i := 0; i < n; i++ {
			var vals []storage.Value
			if rng.Intn(12) == 0 {
				vals = append(vals, storage.NullValue(storage.Int64))
			} else {
				vals = append(vals, storage.IntValue(rng.Int63n(1000)-500))
			}
			if rng.Intn(12) == 0 {
				vals = append(vals, storage.NullValue(storage.Float64))
			} else {
				vals = append(vals, storage.FloatValue(rng.NormFloat64()*100))
			}
			if rng.Intn(12) == 0 {
				vals = append(vals, storage.NullValue(storage.String))
			} else {
				vals = append(vals, storage.StringValue(string(rune('a'+rng.Intn(26)))))
			}
			if err := tb.AppendRow(vals...); err != nil {
				return false
			}
		}
		if rng.Intn(2) == 0 {
			sealDicts(tb)
		}
		var buf bytes.Buffer
		if _, err := tb.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumRows() != tb.NumRows() {
			return false
		}
		for i := 0; i < n; i++ {
			a, _ := tb.Row(i)
			b, _ := got.Row(i)
			for ci := range a {
				if !a[ci].Equal(b[ci]) {
					return false
				}
			}
		}
		return got.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
