package adskip

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func demoDB(t *testing.T, policy Policy) (*DB, *Table) {
	t.Helper()
	db := Open(Options{Policy: policy})
	tab, err := db.CreateTable("sales",
		Col("id", Int64), Col("price", Float64), Col("city", String))
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id    int
		price float64
		city  string
	}{
		{1, 10.5, "oslo"}, {2, 20.0, "rome"}, {3, 5.25, "oslo"},
		{4, 99.0, "cairo"}, {5, 15.0, "rome"},
	}
	for _, r := range rows {
		if err := tab.Append(r.id, r.price, r.city); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func TestQuickstartFlow(t *testing.T) {
	db, tab := demoDB(t, Adaptive)
	if tab.Name() != "sales" || tab.NumRows() != 5 {
		t.Fatalf("name=%s rows=%d", tab.Name(), tab.NumRows())
	}
	res, err := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(IntValue(3)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	res, err = db.Exec("SELECT id, city FROM sales WHERE city = 'rome'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "rome" {
		t.Fatalf("rows=%v", res.Rows)
	}
	info := tab.SkipperInfo()
	if info["price"].Kind != "adaptive" {
		t.Fatalf("info=%v", info)
	}
}

func TestAppendConversions(t *testing.T) {
	db := Open(Options{})
	tab, err := db.CreateTable("t", Col("a", Int64), Col("f", Float64), Col("s", String))
	if err != nil {
		t.Fatal(err)
	}
	// int into float column coerces; nil is NULL; Value passes through.
	if err := tab.Append(int32(1), 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(int64(2), 3.5, StringValue("x")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append("wrong", 1.0, "x"); err == nil {
		t.Fatal("string into int column accepted")
	}
	if err := tab.Append(1, "wrong", "x"); err == nil {
		t.Fatal("string into float column accepted")
	}
	if err := tab.Append(1, 1.0, 3); err == nil {
		t.Fatal("int into string column accepted")
	}
	if err := tab.Append(1, 1.0); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := tab.Append(struct{}{}, 1.0, "x"); err == nil {
		t.Fatal("unsupported Go type accepted")
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows=%d", tab.NumRows())
	}
}

func TestCatalogErrors(t *testing.T) {
	db, _ := demoDB(t, None)
	if _, err := db.CreateTable("sales", Col("x", Int64)); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := db.Table("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing: %v", err)
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("exec missing: %v", err)
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "sales" {
		t.Fatalf("names=%v", got)
	}
	if _, err := db.Table("sales"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveTable("missing", &buf); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("save missing: %v", err)
	}
	if err := db.SaveTable("sales", &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadTable(&buf); !errors.Is(err, ErrTableExists) {
		t.Fatalf("load dup: %v", err)
	}
}

func TestLoadCSVThroughFacade(t *testing.T) {
	db := Open(Options{Policy: Adaptive})
	csvData := "id,price,city\n1,10.5,oslo\n2,,rome\n"
	tab, err := db.LoadCSV("sales", strings.NewReader(csvData), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows=%d", tab.NumRows())
	}
	if err := tab.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM sales WHERE price IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(IntValue(1)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "id,price,city") {
		t.Fatalf("csv=%q", buf.String())
	}
	if _, err := db.LoadCSV("sales", strings.NewReader(csvData), CSVOptions{}); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := db.LoadCSV("bad", strings.NewReader(""), CSVOptions{}); err == nil {
		t.Fatal("empty csv accepted")
	}
}

func TestExplainThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	res, err := db.Exec("EXPLAIN SELECT COUNT(*) FROM sales WHERE price < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Columns[0] != "plan" {
		t.Fatalf("plan rows=%v", res.Rows)
	}
	found := false
	for _, row := range res.Rows {
		if strings.Contains(row[0].Str(), "adaptive skipper") {
			found = true
		}
	}
	if !found {
		t.Fatalf("plan missing skipper line: %v", res.Rows)
	}
}
