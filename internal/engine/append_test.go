package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"adskip/internal/dict"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// benchSchema is the repository benchmark's table: v carries the
// distribution, seq is the row number, noise is a uniform float.
func benchSchema() table.Schema {
	return table.Schema{
		{Name: "v", Type: storage.Int64},
		{Name: "seq", Type: storage.Int64},
		{Name: "noise", Type: storage.Float64},
	}
}

// benchBatch builds n rows of benchSchema over one backing array.
func benchBatch(n int, seed int64) [][]storage.Value {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]storage.Value, 3*n)
	rows := make([][]storage.Value, n)
	for i := range rows {
		rows[i] = cells[3*i : 3*i+3 : 3*i+3]
		rows[i][0] = storage.IntValue(rng.Int63n(1 << 21))
		rows[i][1] = storage.IntValue(int64(i))
		rows[i][2] = storage.FloatValue(rng.Float64() * 1000)
	}
	return rows
}

// openWAL opens a log on a fresh temp dir. Syncs are skipped: the
// benchmark and the tests below measure and check the engine's side of a
// durable append, not the disk.
func openWAL(tb testing.TB) (*wal.Log, *obs.Registry) {
	tb.Helper()
	reg := obs.NewRegistry()
	l, _, err := wal.Open(wal.Options{Dir: tb.TempDir(), NoSync: true, Metrics: reg}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	return l, reg
}

// BenchmarkAppendRows loads the benchmark's 3-column table from empty to
// 2 Mi rows, over and over, at three batch sizes, with and without a WAL:
// the load path that setup_s of the repository benchmark spends most of
// its time in. Every filled table has each column read once inside the timed
// loop, so ns/row and B/row include the consolidation a load's first reader
// pays (for all three columns: the worst case — a query reads one or two).
// The durable legs pipeline their commits (one Wait per table, as
// sustained ingest does), so they time the engine's side of a durable
// append, not the group-commit window.
func BenchmarkAppendRows(b *testing.B) {
	const tableRows = 1 << 21
	for _, durable := range []bool{false, true} {
		for _, n := range []int{1, 256, 1 << 16} {
			b.Run(fmt.Sprintf("wal=%v/batch=%d", durable, n), func(b *testing.B) {
				batch := benchBatch(n, 1)
				fresh := func() *Engine {
					e := New(table.MustNew("data", benchSchema()), Options{})
					if durable {
						l, _ := openWAL(b)
						e.SetWAL(l)
					}
					return e
				}
				e := fresh()
				var last wal.Commit
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.NumRows() >= tableRows {
						for ci := 0; ci < e.tbl.NumColumns(); ci++ {
							e.tbl.ColumnAt(ci).Vec()
						}
						if err := last.Wait(); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						e = fresh()
						b.StartTimer()
					}
					var err error
					if last, err = e.AppendRowsAsync(batch); err != nil {
						b.Fatal(err)
					}
				}
				if err := last.Wait(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				rows := float64(b.N) * float64(n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
			})
		}
	}
}

// TestAppendAllocsIndependentOfBatchLength: a volatile append into a table
// with spare capacity allocates the same number of objects whatever the
// batch length — nothing in the path allocates per row or per cell.
func TestAppendAllocsIndependentOfBatchLength(t *testing.T) {
	allocs := func(n int) float64 {
		e := New(table.MustNew("data", benchSchema()), Options{})
		// Pre-size: one row on top of a consolidated bulk load grows every
		// column by a ladder rung, a quarter of it spare.
		for _, k := range []int{1 << 15, 1} {
			if err := e.AppendRows(benchBatch(k, 2)); err != nil {
				t.Fatal(err)
			}
			for ci := 0; ci < e.tbl.NumColumns(); ci++ {
				e.tbl.ColumnAt(ci).Consolidate()
			}
		}
		batch := benchBatch(n, 3)
		return testing.AllocsPerRun(20, func() {
			if err := e.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	if small != large {
		t.Fatalf("allocations depend on batch length: %v for 16 rows, %v for 256", small, large)
	}
	if large > 2 {
		t.Fatalf("a warm 256-row append allocates %v objects, want <= 2", large)
	}
}

// TestAppendRejectsWholeBatch: a batch with one bad cell — at any row,
// in any column — leaves every column exactly as it was, and nothing
// reaches the log, with a WAL armed and without.
func TestAppendRejectsWholeBatch(t *testing.T) {
	schema := table.Schema{
		{Name: "i", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
	good := func(k int) []storage.Value {
		return []storage.Value{storage.IntValue(int64(k)), storage.FloatValue(float64(k) / 2), storage.StringValue("b")}
	}
	cases := []struct {
		name   string
		sealed bool
		bad    []storage.Value
		want   error
	}{
		{"arity short", false, []storage.Value{storage.IntValue(1), storage.FloatValue(1)}, table.ErrRowArity},
		{"arity long", false, append(good(1), storage.IntValue(1)), table.ErrRowArity},
		{"type mismatch", false, []storage.Value{storage.FloatValue(1), storage.FloatValue(1), storage.StringValue("b")}, storage.ErrTypeMismatch},
		{"NaN", false, []storage.Value{storage.IntValue(1), storage.FloatValue(math.NaN()), storage.StringValue("b")}, storage.ErrNaN},
		{"sealed dictionary", true, []storage.Value{storage.IntValue(1), storage.FloatValue(1), storage.StringValue("zebra")}, dict.ErrSealed},
	}
	for _, tc := range cases {
		for _, durable := range []bool{false, true} {
			for _, at := range []int{0, 70, 199} {
				t.Run(fmt.Sprintf("%s/wal=%v/row=%d", tc.name, durable, at), func(t *testing.T) {
					tbl := table.MustNew("t", schema)
					// Base rows with NULLs on both sides of a bitmap word boundary.
					for k := 0; k < 130; k++ {
						row := good(k)
						if k%9 == 0 {
							row[k%3] = storage.NullValue(schema[k%3].Type)
						}
						if err := tbl.AppendRow(row...); err != nil {
							t.Fatal(err)
						}
					}
					if s, _ := tbl.Column("s"); tc.sealed {
						s.SealDict()
					}
					e := New(tbl, Options{})
					var reg *obs.Registry
					if durable {
						var l *wal.Log
						l, reg = openWAL(t)
						e.SetWAL(l)
					}
					before := snapshotTable(tbl)

					batch := make([][]storage.Value, 200)
					for k := range batch {
						batch[k] = good(k)
					}
					batch[at] = tc.bad
					err := e.AppendRows(batch)
					if !errors.Is(err, tc.want) {
						t.Fatalf("AppendRows = %v, want %v", err, tc.want)
					}
					if after := snapshotTable(tbl); after != before {
						t.Fatalf("rejected batch changed the table:\nbefore %s\nafter  %s", before, after)
					}
					if durable {
						if n := reg.Counter("adskip_wal_appends_total", "").Load(); n != 0 {
							t.Fatalf("rejected batch logged %d records", n)
						}
					}
					// The table still takes a good batch afterwards.
					batch[at] = good(at)
					if err := e.AppendRows(batch); err != nil {
						t.Fatal(err)
					}
					if err := tbl.CheckInvariants(); err != nil || tbl.NumRows() != 330 {
						t.Fatalf("after good batch: %d rows, %v", tbl.NumRows(), err)
					}
				})
			}
		}
	}
}

// TestAppendWALInTheMiddle: the log sits between stage and commit. A batch
// the log refuses — the log sticky-failed after an injected fsync error, or
// closed — had been staged in full (strings new to the dictionary, NULLs in
// every column, an integer that widens a 4-byte column) and is dropped
// there: cells, row count, pending rows, dictionary, NULL counts, code
// width and the log's append counter are what they were, and once a healthy
// log is armed the next batch lands as it does in a twin that never saw the
// refused one.
func TestAppendWALInTheMiddle(t *testing.T) {
	schema := table.Schema{
		{Name: "i", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
	batchOf := func(from, n int, tag string) [][]storage.Value {
		rows := make([][]storage.Value, n)
		for k := range rows {
			rows[k] = []storage.Value{storage.IntValue(int64(from + k)), storage.FloatValue(float64(k) / 2), storage.StringValue(fmt.Sprintf("%s%d", tag, k%7))}
			if k%9 == 0 {
				rows[k][k%3] = storage.NullValue(schema[k%3].Type)
			}
		}
		return rows
	}
	for _, mode := range []string{"failed log", "closed log"} {
		t.Run(mode, func(t *testing.T) {
			tbl, twin := table.MustNew("t", schema), table.MustNew("t", schema)
			e := New(tbl, Options{})
			reg := obs.NewRegistry()
			l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Metrics: reg}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			e.SetWAL(l)

			// The last batch the log takes. In the failed case its fsync is
			// the one that fails: logged and committed in memory, never
			// acknowledged, and the log refuses everything after it.
			first := batchOf(0, 130, "a")
			if mode == "failed log" {
				restore := faultinject.Activate(faultinject.New(1).Set(faultinject.WALSyncErr, faultinject.Rule{Limit: 1}))
				err = e.AppendRows(first)
				restore()
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("append over a failing fsync: %v", err)
				}
			} else {
				if err := e.AppendRows(first); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := twin.AppendRows(first); err != nil {
				t.Fatal(err)
			}

			appends := reg.Counter("adskip_wal_appends_total", "")
			staged := tbl.ColumnAt(0).Staged()
			before, logged := snapshotTable(tbl), appends.Load() // reading consolidates: the refused batch heads for a new chunk
			if before != snapshotTable(twin) {
				t.Fatal("table and twin differ before the refused batch")
			}
			refused := batchOf(1000, 200, "new")
			refused[3][0] = storage.IntValue(1 << 32)
			if err := e.AppendRows(refused); err == nil || errors.Is(err, storage.ErrTypeMismatch) {
				t.Fatalf("append on a %s: %v", mode, err)
			}
			if e.NumRows() != len(first) || tbl.ColumnAt(0).Staged() != 0 || staged == 0 {
				t.Fatalf("refused batch left rows: %d rows, %d pending (%d before the read)", e.NumRows(), tbl.ColumnAt(0).Staged(), staged)
			}
			if after := snapshotTable(tbl); after != before {
				t.Fatalf("refused batch changed the table:\nbefore %s\nafter  %s", before, after)
			}
			if w := tbl.ColumnAt(0).Vec().Width(); w != 4 || appends.Load() != logged {
				t.Fatalf("refused batch: %d-byte codes, %d records logged (was %d)", w, appends.Load(), logged)
			}

			healthy, reg2 := openWAL(t)
			e.SetWAL(healthy)
			for _, next := range [][][]storage.Value{batchOf(2000, 300, "b"), refused} {
				if err := e.AppendRows(next); err != nil {
					t.Fatal(err)
				}
				if err := twin.AppendRows(next); err != nil {
					t.Fatal(err)
				}
				for ci := range schema {
					if g, w := tbl.ColumnAt(ci).Staged(), twin.ColumnAt(ci).Staged(); g != w {
						t.Fatalf("column %d: %d rows pending, twin %d", ci, g, w)
					}
				}
				if a, b := snapshotTable(tbl), snapshotTable(twin); a != b {
					t.Fatalf("after the refused batch a good one reads\n%s\ntwin\n%s", a, b)
				}
			}
			if g, w := tbl.ColumnAt(0).Vec().Width(), twin.ColumnAt(0).Vec().Width(); g != w || g != 8 {
				t.Fatalf("code widths %d, twin %d, want 8 once the wide integer is in", g, w)
			}
			if n := reg2.Counter("adskip_wal_appends_total", "").Load(); n != 2 {
				t.Fatalf("healthy log took %d records, want 2", n)
			}
		})
	}
}

// snapshotTable renders every column's length, NULL count, cells and
// dictionary as one comparable string.
func snapshotTable(tbl *table.Table) string {
	s := ""
	for ci := 0; ci < tbl.NumColumns(); ci++ {
		c := tbl.ColumnAt(ci)
		s += fmt.Sprintf("[%s len=%d nulls=%d", c.Name(), c.Len(), c.NullCount())
		for i := 0; i < c.Len(); i++ {
			s += " " + c.Value(i).String()
		}
		if d := c.Dict(); d != nil {
			s += fmt.Sprintf(" dict=%q", d.Values())
		}
		s += "]"
	}
	return s
}

// TestStagedAppendThenParallelScan: bulk appends leave every column staged;
// a query consolidates the columns its plan names (and the skipper columns
// syncSkippers extends) in its preamble, under the engine mutex, before its
// scan fans out — so four workers read one consolidated vector — and leaves
// the rest staged. A reader calls NumRows and scrapes the registry
// throughout, as the telemetry server does. Run under -race.
func TestStagedAppendThenParallelScan(t *testing.T) {
	e := New(table.MustNew("data", benchSchema()), Options{Policy: PolicyAdaptive, Parallelism: 4})
	if err := e.EnableSkipping("seq"); err != nil {
		t.Fatal(err)
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.NumRows()
				_ = e.Metrics().WritePrometheus(io.Discard)
			}
		}
	}()

	const batchRows = 1 << 16
	var all []int64
	staged := func(col string) int {
		c, err := e.tbl.Column(col)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return c.Staged()
	}
	for round := 1; round <= 2; round++ {
		for k := 0; k < 2*minRowsPerWorker/batchRows; k++ {
			batch := benchBatch(batchRows, int64(10*round+k))
			for _, r := range batch {
				all = append(all, r[0].Int())
			}
			if err := e.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
		}
		for _, col := range []string{"v", "seq", "noise"} {
			if staged(col) == 0 {
				t.Fatalf("round %d: column %q has nothing staged after a bulk append", round, col)
			}
		}

		lo, hi := int64(1<<19), int64(1<<20)
		want := 0
		for _, v := range all {
			if v >= lo && v <= hi {
				want++
			}
		}
		where := expr.And(expr.MustPred("v", expr.Between, storage.IntValue(lo), storage.IntValue(hi)))
		res, err := e.Query(Query{Where: where, Aggs: []Agg{{Kind: CountStar}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("round %d: parallel COUNT over a column that was staged = %d, want %d", round, res.Count, want)
		}
		if staged("v") != 0 || staged("seq") != 0 {
			t.Fatalf("round %d: predicate column has %d rows staged after the query, skipper column %d", round, staged("v"), staged("seq"))
		}
		if got := staged("noise"); got != len(all) {
			t.Fatalf("round %d: column no query names has %d of %d rows staged", round, got, len(all))
		}
	}

	sorted := slices.Clone(all)
	slices.Sort(sorted)
	res, err := e.Query(Query{Select: []string{"v"}, OrderBy: "v", Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if row[0].Int() != sorted[i] {
			t.Fatalf("ORDER BY row %d = %d, want %d", i, row[0].Int(), sorted[i])
		}
	}
	if len(res.Rows) != 10 || staged("noise") != len(all) {
		t.Fatalf("ORDER BY: %d rows, noise has %d of %d rows staged", len(res.Rows), staged("noise"), len(all))
	}
	close(stop)
	<-sampled
	if err := e.VerifySkipping(); err != nil {
		t.Fatal(err)
	}
}

// TestStagedRowsReplay: a WAL replay stages its batches like any append
// and ends with the codes, at the widths, the original table holds, a
// batch that escalated a column while its rows were staged included;
// VerifySkipping is clean on both tables.
func TestStagedRowsReplay(t *testing.T) {
	dir := t.TempDir()
	build := func() *Engine {
		e := New(table.MustNew("data", benchSchema()), Options{Policy: PolicyAdaptive})
		if err := e.EnableSkipping("v"); err != nil {
			t.Fatal(err)
		}
		return e
	}
	src := build()
	l, _, err := wal.Open(wal.Options{Dir: dir, NoSync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	src.SetWAL(l)
	for k, n := range []int{5000, 1, 255, 1024} {
		batch := benchBatch(n, int64(k))
		if n == 1024 {
			batch[n-1][0] = storage.IntValue(-42) // v's first code past 4 bytes
		}
		if err := src.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	if src.tbl.ColumnAt(0).Staged() == 0 {
		t.Fatal("nothing staged before the crash")
	}
	if err := l.Close(); err != nil { // the crash: nothing but the log survives
		t.Fatal(err)
	}

	dst := build()
	l2, stats, err := wal.Open(wal.Options{Dir: dir, NoSync: true}, dst.ReplayRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if stats.Records != 4 || dst.NumRows() != src.NumRows() {
		t.Fatalf("replayed %d records into %d rows, want 4 and %d", stats.Records, dst.NumRows(), src.NumRows())
	}
	if dst.tbl.ColumnAt(1).Staged() == 0 {
		t.Fatal("replay consolidated a column nothing has read")
	}
	if a, b := snapshotTable(src.tbl), snapshotTable(dst.tbl); a != b {
		t.Fatal("replayed table differs from the original")
	}
	for _, e := range []*Engine{src, dst} {
		if _, err := e.Query(Query{Aggs: []Agg{{Kind: CountStar}}, Where: expr.And(expr.MustPred("v", expr.LE, storage.IntValue(0)))}); err != nil {
			t.Fatal(err)
		}
		if err := e.VerifySkipping(); err != nil {
			t.Fatal(err)
		}
		// Replay reproduces the layout too: the last batch's -42 made v an
		// 8-byte column in the original, seq still fits 4-byte codes.
		if v, seq := e.tbl.ColumnAt(0).Vec().Width(), e.tbl.ColumnAt(1).Vec().Width(); v != 8 || seq != 4 {
			t.Fatalf("code widths v=%d seq=%d, want 8 and 4", v, seq)
		}
	}
}

// TestSealOrderSurvivesReplay: EnableSkipping seals a String column's
// dictionary and remaps its codes, and a restarted process may seal before
// or after it recovers. One run appends strings through the log and seals
// (or seals first and then appends); its restart seals in the other order
// around Recover. The log must replay to the same cells and dictionary
// either way: a logged batch carries its strings, not the codes a
// dictionary held when it was written.
func TestSealOrderSurvivesReplay(t *testing.T) {
	schema := table.Schema{{Name: "i", Type: storage.Int64}, {Name: "s", Type: storage.String}}
	names := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	base := func() *Engine { // the deterministic base data, loaded unlogged
		tbl := table.MustNew("t", schema)
		for k, s := range names {
			if err := tbl.AppendRow(storage.IntValue(int64(k)), storage.StringValue(s)); err != nil {
				t.Fatal(err)
			}
		}
		return New(tbl, Options{Policy: PolicyAdaptive})
	}
	batch := func(k int) [][]storage.Value {
		rows := make([][]storage.Value, 40)
		for i := range rows {
			s := storage.StringValue(names[(k*7+i*3)%len(names)])
			if i%9 == 4 {
				s = storage.NullValue(storage.String)
			}
			rows[i] = []storage.Value{storage.IntValue(int64(k*100 + i)), s}
		}
		return rows
	}
	for _, sealFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("logged with seal first=%v", sealFirst), func(t *testing.T) {
			dir := t.TempDir()
			src := base()
			l, _, err := wal.Open(wal.Options{Dir: dir, NoSync: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			src.SetWAL(l)
			if sealFirst {
				if err := src.EnableSkipping("s"); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 4; k++ {
				if err := src.AppendRows(batch(k)); err != nil {
					t.Fatal(err)
				}
			}
			if !sealFirst {
				if err := src.EnableSkipping("s"); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			dst := base()
			if !sealFirst { // the restart seals before it recovers
				if err := dst.EnableSkipping("s"); err != nil {
					t.Fatal(err)
				}
			}
			l2, _, err := wal.Open(wal.Options{Dir: dir, NoSync: true}, dst.ReplayRecord)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if sealFirst {
				if err := dst.EnableSkipping("s"); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := snapshotTable(src.tbl), snapshotTable(dst.tbl); a != b {
				t.Fatalf("replayed table differs from the original:\n%.300s\n%.300s", b, a)
			}
			if err := dst.VerifySkipping(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSkippingOnEmptyTableAcceptsStrings: skipping enabled on an empty
// table leaves the empty dictionary open, so appends carrying strings are
// accepted; the first query seals it and rebuilds the column's skipper
// over the re-coded rows, which then prunes by value.
func TestSkippingOnEmptyTableAcceptsStrings(t *testing.T) {
	tbl := table.MustNew("t", table.Schema{{Name: "k", Type: storage.Int64}, {Name: "s", Type: storage.String}})
	e := New(tbl, Options{Policy: PolicyStatic, ZoneSize: 4})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	words := []string{"oak", "ash", "pine", "elm"}
	for i := range 16 {
		if err := e.AppendRow(storage.IntValue(int64(i)), storage.StringValue(words[i/4])); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	res, err := e.Query(Query{Where: expr.And(expr.MustPred("s", expr.EQ, storage.StringValue("elm")))})
	if err != nil || res.Count != 4 || res.Stats.RowsSkipped != 12 {
		t.Fatalf("s = 'elm': %v, count %d, stats %+v; want 4 rows and 12 skipped", err, res.Count, res.Stats)
	}
	if col, _ := tbl.Column("s"); !col.DictSorted() {
		t.Fatal("the dictionary is still open after a query")
	}
	if err := e.VerifySkipping(); err != nil {
		t.Fatal(err)
	}
}
