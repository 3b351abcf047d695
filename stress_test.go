package adskip

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentExecAndAppend hammers one shared DB from many goroutines
// mixing reads (ExecContext) with appends, the same interleaving a
// server session pool produces: single-row appends and bulk batches large
// enough that the table applies their columns on separate goroutines. Run
// under -race in CI. Afterwards the skipping metadata must still verify
// and counts must be exact.
func TestConcurrentExecAndAppend(t *testing.T) {
	db := Open(Options{Policy: Adaptive, MaxConcurrentQueries: 8})
	defer db.Close()
	tbl, err := db.CreateTable("data", Col("v", Int64), Col("seq", Int64))
	if err != nil {
		t.Fatal(err)
	}
	const seedRows = 10000
	for i := 0; i < seedRows; i++ {
		if err := tbl.Append((i/1000)*1000+i%7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}

	const (
		readers        = 8
		appenders      = 2
		readsEach      = 150
		appendsEach    = 1500
		appendSentinel = 1 << 40 // appended v values, outside the seed domain
		bulkers        = 2
		bulksEach      = 4
		bulkRows       = 1 << 13 // x 2 columns: above the parallel-column threshold
		bulkSentinel   = 1 << 41
	)
	var wg sync.WaitGroup
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < readsEach; i++ {
				lo := ((r*readsEach + i) % 10) * 1000
				q := fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", lo, lo+6)
				res, err := db.ExecContext(ctx, q)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				// Readers only touch the seeded domain, whose contents
				// never change: every count must be exact despite the
				// concurrent appends.
				if res.Count != 1000 {
					fail("reader %d: count %d, want 1000", r, res.Count)
					return
				}
			}
		}(r)
	}
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < appendsEach; i++ {
				if err := tbl.Append(int64(appendSentinel+i), seedRows+a*appendsEach+i); err != nil {
					fail("appender %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	for b := 0; b < bulkers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batch := make([][]Value, bulkRows)
			for i := range batch {
				batch[i] = []Value{IntValue(int64(bulkSentinel + i)), IntValue(int64(b))}
			}
			for i := 0; i < bulksEach; i++ {
				if err := tbl.AppendBatch(batch); err != nil {
					fail("bulk appender %d: %v", b, err)
					return
				}
			}
		}(b)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}

	res, err := db.Exec(fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v >= %d", int64(bulkSentinel)))
	if err != nil {
		t.Fatal(err)
	}
	if want := bulkers * bulksEach * bulkRows; res.Count != want {
		t.Fatalf("bulk-appended row count %d, want %d", res.Count, want)
	}
	if got, want := tbl.NumRows(), seedRows+appenders*appendsEach+bulkers*bulksEach*bulkRows; got != want {
		t.Fatalf("rows after stress: %d, want %d", got, want)
	}
	// Appended rows are queryable and the metadata survived the churn.
	res, err = db.Exec(fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d",
		int64(appendSentinel), int64(appendSentinel)+appendsEach))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != appenders*appendsEach {
		t.Fatalf("appended-row count %d, want %d", res.Count, appenders*appendsEach)
	}
	if err := tbl.VerifySkipping("v"); err != nil {
		t.Fatalf("skipping metadata unsound after concurrent churn: %v", err)
	}
}

// TestTableNamesSorted registers tables in scrambled order and checks
// the catalog listing is deterministic (sorted), which the server's
// catalog op relies on.
func TestTableNamesSorted(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	for _, name := range []string{"orders", "alpha", "zeta", "metrics_a", "metrics"} {
		if _, err := db.CreateTable(name, Col("v", Int64)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "metrics", "metrics_a", "orders", "zeta"}
	for run := 0; run < 3; run++ {
		got := db.TableNames()
		if len(got) != len(want) {
			t.Fatalf("TableNames() = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TableNames() = %v, want %v", got, want)
			}
		}
	}
}
