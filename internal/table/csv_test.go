package table

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"adskip/internal/storage"
)

const demoCSV = `id,price,city
1,10.5,oslo
2,,rome
3,5.25,
4,99,cairo
`

func TestReadCSVInference(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(demoCSV), "sales", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Schema()
	if s[0].Type != storage.Int64 || s[1].Type != storage.Float64 || s[2].Type != storage.String {
		t.Fatalf("schema=%v", s)
	}
	if tb.NumRows() != 4 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	// The loader hands the table over unread: Row is the first reader.
	if got := tb.ColumnAt(0).Staged(); got != 4 {
		t.Fatalf("%d rows staged after ReadCSV, want 4", got)
	}
	row, _ := tb.Row(1)
	if row[0].Int() != 2 || !row[1].IsNull() || row[2].Str() != "rome" {
		t.Fatalf("row1=%v", row)
	}
	// "99" in a float column parses as float.
	row, _ = tb.Row(3)
	if row[1].Float() != 99 {
		t.Fatalf("row3=%v", row)
	}
	// Empty string cell is NULL (default null literal), not "".
	row, _ = tb.Row(2)
	if !row[2].IsNull() {
		t.Fatalf("row2 city=%v", row[2])
	}
}

func TestReadCSVIntColumnStaysInt(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("a\n1\n2\n-7\n"), "t", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema()[0].Type != storage.Int64 {
		t.Fatalf("schema=%v", tb.Schema())
	}
}

func TestReadCSVMixedBecomesString(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("a\n1\nx\n"), "t", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema()[0].Type != storage.String {
		t.Fatalf("schema=%v", tb.Schema())
	}
	if v, _ := tb.Row(0); v[0].Str() != "1" {
		t.Fatalf("row0=%v", v)
	}
}

func TestReadCSVExplicitSchemaAndNullLiteral(t *testing.T) {
	schema := Schema{{Name: "a", Type: storage.Float64}, {Name: "b", Type: storage.String}}
	in := "a,b\n1,NA\n2.5,x\n"
	tb, err := ReadCSV(strings.NewReader(in), "t", CSVOptions{Schema: schema, NullLiteral: "NA"})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema()[0].Type != storage.Float64 {
		t.Fatal("schema not honored")
	}
	row, _ := tb.Row(0)
	if row[0].Float() != 1 || !row[1].IsNull() {
		t.Fatalf("row0=%v", row)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	schema := Schema{{Name: "x", Type: storage.Int64}}
	tb, err := ReadCSV(strings.NewReader("5\n6\n"), "t", CSVOptions{NoHeader: true, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	if _, err := ReadCSV(strings.NewReader("5\n"), "t", CSVOptions{NoHeader: true}); !errors.Is(err, ErrCSV) {
		t.Fatalf("NoHeader without schema: %v", err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	// Schema/header mismatch.
	schema := Schema{{Name: "wrong", Type: storage.Int64}}
	if _, err := ReadCSV(strings.NewReader("a\n1\n"), "t", CSVOptions{Schema: schema}); !errors.Is(err, ErrCSV) {
		t.Fatalf("name mismatch: %v", err)
	}
	schema2 := Schema{{Name: "a", Type: storage.Int64}, {Name: "b", Type: storage.Int64}}
	if _, err := ReadCSV(strings.NewReader("a\n1\n"), "t", CSVOptions{Schema: schema2}); !errors.Is(err, ErrCSV) {
		t.Fatalf("arity mismatch: %v", err)
	}
	// Unparseable cell under explicit schema.
	schema3 := Schema{{Name: "a", Type: storage.Int64}}
	if _, err := ReadCSV(strings.NewReader("a\nxyz\n"), "t", CSVOptions{Schema: schema3}); !errors.Is(err, ErrCSV) {
		t.Fatalf("bad int: %v", err)
	}
	// Ragged record beyond the inference window.
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 5; i++ {
		sb.WriteString("1,2\n")
	}
	sb.WriteString("3\n") // short record -> csv.Reader errors
	if _, err := ReadCSV(strings.NewReader(sb.String()), "t", CSVOptions{InferRows: 2}); !errors.Is(err, ErrCSV) {
		t.Fatalf("ragged: %v", err)
	}
	// Empty input.
	if _, err := ReadCSV(strings.NewReader(""), "t", CSVOptions{}); !errors.Is(err, ErrCSV) {
		t.Fatalf("empty: %v", err)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(demoCSV), "sales", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf, ""); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), "sales", CSVOptions{Schema: tb.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatalf("rows %d vs %d", back.NumRows(), tb.NumRows())
	}
	for i := 0; i < tb.NumRows(); i++ {
		a, _ := tb.Row(i)
		b, _ := back.Row(i)
		for ci := range a {
			if !a[ci].Equal(b[ci]) {
				t.Fatalf("row %d col %d: %v vs %v", i, ci, a[ci], b[ci])
			}
		}
	}
}

func TestReadCSVSemicolonDelimiter(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("a;b\n1;x\n"), "t", CSVOptions{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tb.Row(0)
	if row[0].Int() != 1 || row[1].Str() != "x" {
		t.Fatalf("row=%v", row)
	}
}
