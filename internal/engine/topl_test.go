package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// stableSortTwin is the ORDER BY this package used to run, kept as the
// reference the top-L selection is held to: gather every matching row id,
// sort.SliceStable by the order column (NULLs last in both directions,
// values compared directly on an unsealed dictionary), truncate to the
// limit, materialize; aggregates fold over the whole match set.
func stableSortTwin(t testing.TB, tb *table.Table, q Query, matches []int) (rows [][]storage.Value, aggs []storage.Value) {
	t.Helper()
	orderCol, err := tb.Column(q.OrderBy)
	if err != nil {
		t.Fatal(err)
	}
	ids := append([]int(nil), matches...)
	codes := orderCol.Codes()
	less := func(ri, rj int) bool { return codes[ri] < codes[rj] }
	if orderCol.Type() == storage.String && !orderCol.DictSorted() {
		d := orderCol.Dict()
		less = func(ri, rj int) bool { return d.Value(codes[ri]) < d.Value(codes[rj]) }
	}
	sort.SliceStable(ids, func(i, j int) bool {
		ri, rj := ids[i], ids[j]
		ni, nj := orderCol.IsNull(ri), orderCol.IsNull(rj)
		if ni || nj {
			return !ni && nj
		}
		if q.OrderDesc {
			return less(rj, ri)
		}
		return less(ri, rj)
	})
	if q.Limit > 0 && len(ids) > q.Limit {
		ids = ids[:q.Limit]
	}
	for _, r := range ids {
		var vals []storage.Value
		for _, name := range q.Select {
			col, err := tb.Column(name)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, col.Value(r))
		}
		rows = append(rows, vals)
	}
	for _, a := range q.Aggs {
		var col *storage.Column
		if a.Kind != CountStar {
			if col, err = tb.Column(a.Col); err != nil {
				t.Fatal(err)
			}
		}
		acc := newAggAcc(a.Kind, col)
		for _, r := range matches {
			acc.addRow(r)
		}
		acc.decode()
		aggs = append(aggs, acc.result())
	}
	return rows, aggs
}

// diffOrdered runs q on e and holds the result to the twin. mirror is an
// engine over the same table with the same policy that has seen the same
// query stream, unordered: ORDER BY changes neither what the skippers are
// told nor which windows are candidates. Where the window skip cannot fire
// (no LIMIT, aggregates beside the ordering, an unsealed dictionary) the
// two must report identical Stats; elsewhere a skipped window reads only
// the order column, so every count but RowsScanned and BytesScanned is
// identical and RowsScanned stays within what the twin scanned or covered.
func diffOrdered(t *testing.T, tb *table.Table, e, mirror *Engine, q Query) error {
	t.Helper()
	matches := referenceEval(t, tb, q.Where)
	wantRows, wantAggs := stableSortTwin(t, tb, q, matches)
	res, err := e.Query(q)
	if err != nil {
		return err
	}
	if res.Count != len(wantRows) || len(res.Rows) != len(wantRows) {
		return fmt.Errorf("count=%d rows=%d, want %d", res.Count, len(res.Rows), len(wantRows))
	}
	for i, want := range wantRows {
		for c := range want {
			if !res.Rows[i][c].Equal(want[c]) {
				return fmt.Errorf("row %d: got %v, want %v", i, res.Rows[i], want)
			}
		}
	}
	if len(res.Aggs) != len(wantAggs) {
		return fmt.Errorf("aggs=%v, want %v", res.Aggs, wantAggs)
	}
	for i := range wantAggs {
		if !res.Aggs[i].Equal(wantAggs[i]) {
			return fmt.Errorf("agg %d: got %v, want %v", i, res.Aggs[i], wantAggs[i])
		}
	}
	if mirror != nil {
		plain, err := mirror.Query(Query{Where: q.Where, Select: q.Select})
		if err != nil {
			return err
		}
		got, want := res.Stats, plain.Stats
		if skipCanFire(tb, q) {
			if got.RowsScanned > want.RowsScanned+want.RowsCovered {
				return fmt.Errorf("rows scanned %d, unordered twin scanned %d and covered %d", got.RowsScanned, want.RowsScanned, want.RowsCovered)
			}
			got.RowsScanned, got.BytesScanned = want.RowsScanned, want.BytesScanned
		}
		if got != want {
			return fmt.Errorf("stats %+v, unordered twin %+v", res.Stats, plain.Stats)
		}
	}
	return nil
}

// skipCanFire reports whether execWindows may skip windows of q that cannot
// reach the cut: a LIMIT, no aggregate or GROUP BY beside the ordering, and
// an order column whose codes compare as values.
func skipCanFire(tb *table.Table, q Query) bool {
	col, err := tb.Column(q.OrderBy)
	return err == nil && q.Limit > 0 && len(q.Aggs) == 0 && q.GroupBy == "" && col.DictSorted()
}

// diffUnordered holds an unordered query on e to referenceEval: a
// projection returns the first LIMIT matches in row order; GROUP BY returns
// one row per distinct key in value order, NULL last; otherwise the count
// covers every match. Aggregates fold every match in every shape.
func diffUnordered(t *testing.T, tb *table.Table, e *Engine, q Query) error {
	t.Helper()
	matches := referenceEval(t, tb, q.Where)
	column := func(name string) *storage.Column {
		col, err := tb.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	fold := func(rows []int) []storage.Value {
		var out []storage.Value
		for _, a := range q.Aggs {
			var col *storage.Column
			if a.Kind != CountStar {
				col = column(a.Col)
			}
			acc := newAggAcc(a.Kind, col)
			for _, r := range rows {
				acc.addRow(r)
			}
			acc.decode()
			out = append(out, acc.result())
		}
		return out
	}
	var wantRows [][]storage.Value
	var wantAggs []storage.Value
	wantCount := len(matches)
	switch {
	case q.GroupBy != "":
		key := column(q.GroupBy)
		groups := map[int64][]int{}
		var keys []int64
		var nulls []int
		for _, r := range matches {
			if key.IsNull(r) {
				nulls = append(nulls, r)
				continue
			}
			c := key.Codes()[r]
			if _, ok := groups[c]; !ok {
				keys = append(keys, c)
			}
			groups[c] = append(groups[c], r)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := key.Value(groups[keys[i]][0]), key.Value(groups[keys[j]][0])
			switch key.Type() {
			case storage.Float64:
				return a.Float() < b.Float()
			case storage.String:
				return a.Str() < b.Str()
			}
			return a.Int() < b.Int()
		})
		for _, c := range keys {
			wantRows = append(wantRows, append([]storage.Value{key.Value(groups[c][0])}, fold(groups[c])...))
		}
		if len(nulls) > 0 {
			wantRows = append(wantRows, append([]storage.Value{storage.NullValue(key.Type())}, fold(nulls)...))
		}
		if q.Limit > 0 && len(wantRows) > q.Limit {
			wantRows = wantRows[:q.Limit]
		}
	case len(q.Select) > 0:
		wantAggs = fold(matches)
		if q.Limit > 0 && len(matches) > q.Limit {
			matches = matches[:q.Limit]
		}
		for _, r := range matches {
			var vals []storage.Value
			for _, name := range q.Select {
				vals = append(vals, column(name).Value(r))
			}
			wantRows = append(wantRows, vals)
		}
		wantCount = len(matches)
	default:
		wantAggs = fold(matches)
	}
	res, err := e.Query(q)
	if err != nil {
		return err
	}
	if res.Count != wantCount || len(res.Rows) != len(wantRows) {
		return fmt.Errorf("count=%d rows=%d, want %d and %d", res.Count, len(res.Rows), wantCount, len(wantRows))
	}
	for i, want := range wantRows {
		if len(res.Rows[i]) != len(want) {
			return fmt.Errorf("row %d: got %v, want %v", i, res.Rows[i], want)
		}
		for c := range want {
			if !res.Rows[i][c].Equal(want[c]) {
				return fmt.Errorf("row %d: got %v, want %v", i, res.Rows[i], want)
			}
		}
	}
	if len(res.Aggs) != len(wantAggs) {
		return fmt.Errorf("aggs=%v, want %v", res.Aggs, wantAggs)
	}
	for i := range wantAggs {
		if !res.Aggs[i].Equal(wantAggs[i]) {
			return fmt.Errorf("agg %d: got %v, want %v", i, res.Aggs[i], wantAggs[i])
		}
	}
	return nil
}

// toplTable is buildRefTable plus u, a string column whose dictionary
// stays unsealed (skipping is enabled on every other column only), so
// ordering by it has to compare values; s is the sealed twin.
func toplTable(t testing.TB, n int, seed int64) *table.Table {
	t.Helper()
	src := buildRefTable(t, n, seed)
	tb := table.MustNew("t", append(testSchema(),
		table.ColumnSpec{Name: "g", Type: storage.Float64},
		table.ColumnSpec{Name: "u", Type: storage.String}))
	rng := rand.New(rand.NewSource(seed + 2))
	words := []string{"pear", "apple", "zebra", "mango", "fig", "Ünï", "kiwi"}
	for r := 0; r < n; r++ {
		row, err := src.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		u := storage.StringValue(words[rng.Intn(len(words))])
		if rng.Intn(9) == 0 {
			u = storage.NullValue(storage.String)
		}
		if err := tb.AppendRow(append(row, u)...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func toplEngine(t testing.TB, tb *table.Table, policy Policy) *Engine {
	t.Helper()
	e := New(tb, Options{Policy: policy, ZoneSize: smallZone, MinZoneRows: smallParts})
	if err := e.EnableSkipping("a", "b", "f", "s", "g"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTopLMatchesStableSort is the differential table: every order column
// type, both directions, NULLs on both sides of the cut, duplicate keys
// decided by row id, limits around the match count, aggregates beside the
// ORDER BY, several candidate windows, under every policy.
func TestTopLMatchesStableSort(t *testing.T) {
	const n = 900
	tb := toplTable(t, n, 81)
	if col, _ := tb.Column("u"); col.DictSorted() {
		t.Fatal("u's dictionary must stay unsealed for this test")
	}
	wheres := map[string]expr.Conj{
		"all":     {},
		"windows": expr.And(expr.MustPred("a", expr.In, storage.IntValue(3), storage.IntValue(200), storage.IntValue(201), storage.IntValue(640), storage.IntValue(899))),
		"range":   expr.And(intPred("a", expr.Between, 100, 700), intPred("b", expr.LT, 600)),
		"nulls":   expr.And(expr.MustPred("b", expr.IsNull)),
		"floats":  expr.And(expr.MustPred("g", expr.LE, storage.FloatValue(1e300)), intPred("a", expr.GE, 50)),
		"none":    expr.And(intPred("a", expr.LT, 0)),
	}
	aggs := []Agg{{Kind: CountStar}, {Kind: Sum, Col: "f"}, {Kind: Min, Col: "g"}, {Kind: Avg, Col: "b"}, {Kind: Max, Col: "u"}}
	for _, policy := range []Policy{PolicyNone, PolicyStatic, PolicyAdaptive} {
		e, mirror := toplEngine(t, tb, policy), toplEngine(t, tb, policy)
		for name, where := range wheres {
			m := len(referenceEval(t, tb, where))
			for _, orderBy := range []string{"a", "b", "f", "s", "g", "u"} {
				for _, desc := range []bool{false, true} {
					for _, limit := range []int{0, 1, m - 1, m, m + 1, 7} {
						if limit < 0 {
							continue
						}
						q := Query{Where: where, Select: []string{"a", orderBy}, OrderBy: orderBy, OrderDesc: desc, Limit: limit}
						if limit == 7 {
							q.Aggs = aggs
						}
						if err := diffOrdered(t, tb, e, mirror, q); err != nil {
							t.Fatalf("%v %s ORDER BY %s desc=%v LIMIT %d: %v", policy, name, orderBy, desc, limit, err)
						}
					}
				}
			}
		}
	}
}

// TestTopLSkipsWindowsPastTheCut shows the window skip firing where it may
// and nowhere else. seq ascends with the row id, so once an ascending
// heap is full every later window starts past the cut and is skipped,
// while a descending one finds better rows in every window; aggregates
// beside the ordering, an unsealed dictionary and LIMIT 0 keep every
// window filtered. A skipped window reads only seq (4-byte codes) where a
// filtered one reads f (8-byte codes), so BytesScanned tells the two
// apart against the unordered twin. Every result is held to the reference.
func TestTopLSkipsWindowsPastTheCut(t *testing.T) {
	const n = 8*windowRows + 77
	tb := table.MustNew("t", table.Schema{{Name: "seq", Type: storage.Int64}, {Name: "f", Type: storage.Float64}, {Name: "u", Type: storage.String}})
	rng := rand.New(rand.NewSource(83))
	b := table.NewBatcher(tb)
	for i := 0; i < n; i++ {
		f := storage.FloatValue(rng.Float64())
		if rng.Intn(40) == 0 {
			f = storage.NullValue(storage.Float64)
		}
		if err := b.Add(storage.IntValue(int64(i)), f, storage.StringValue(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	e := New(tb, Options{Policy: PolicyNone})
	where := expr.And(expr.MustPred("f", expr.GE, storage.FloatValue(0.25)))
	for _, c := range []struct {
		name  string
		q     Query
		fires bool
	}{
		{"asc", Query{Where: where, Select: []string{"seq", "f"}, OrderBy: "seq", Limit: 10}, true},
		{"desc", Query{Where: where, Select: []string{"seq", "f"}, OrderBy: "seq", OrderDesc: true, Limit: 10}, false},
		{"aggregates", Query{Where: where, Select: []string{"seq"}, OrderBy: "seq", Limit: 10, Aggs: []Agg{{Kind: Sum, Col: "f"}}}, false},
		{"unsealed", Query{Where: where, Select: []string{"seq", "u"}, OrderBy: "u", Limit: 10}, false},
		{"limit 0", Query{Where: where, Select: []string{"seq"}, OrderBy: "seq"}, false},
	} {
		if err := diffOrdered(t, tb, e, nil, c.q); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := e.Query(c.q)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Query(Query{Where: c.q.Where, Select: c.q.Select})
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Stats, plain.Stats
		if fired := got.BytesScanned < want.BytesScanned; fired != c.fires {
			t.Fatalf("%s: skip fired=%v, want %v (stats %+v, unordered twin %+v)", c.name, fired, c.fires, got, want)
		}
		if !c.fires && got != want {
			t.Fatalf("%s: stats %+v, unordered twin %+v", c.name, got, want)
		}
		if c.fires && (got.RowsScanned != want.RowsScanned || got.BytesScanned < 4*n) {
			t.Fatalf("%s: stats %+v: a skipped window still charges its rows at the order column's width", c.name, got)
		}
	}
	if col, _ := tb.Column("u"); col.DictSorted() {
		t.Fatal("u's dictionary must stay unsealed for this test")
	}
}

// TestTopLAcrossCheckpointWindows drives the windowed scan loop through one
// candidate window that spans several checkpoints (no skipper: the whole
// table is one window): the top-L selection through a full heap that keeps
// being displaced late in the scan, and every unordered shape — projections
// whose LIMIT ends inside, at and just past a 1024-row window, aggregates,
// GROUP BY, and a two-column COUNT — against the reference.
func TestTopLAcrossCheckpointWindows(t *testing.T) {
	const n = 3*checkpointRows + 123
	tb := table.MustNew("t", table.Schema{{Name: "k", Type: storage.Int64}, {Name: "v", Type: storage.Float64}})
	rng := rand.New(rand.NewSource(82))
	b := table.NewBatcher(tb)
	for i := 0; i < n; i++ {
		v := storage.FloatValue(float64(rng.Intn(2001)-1000) * 1e297)
		if rng.Intn(50) == 0 {
			v = storage.NullValue(storage.Float64)
		}
		// k descends, so ORDER BY k keeps finding better rows to the end.
		if err := b.Add(storage.IntValue(int64((n-i)/3)), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	e := New(tb, Options{Policy: PolicyNone})
	where := expr.And(expr.MustPred("v", expr.GE, storage.FloatValue(-5e299)))
	for _, q := range []Query{
		{Where: where, Select: []string{"k", "v"}, OrderBy: "k", Limit: 100, Aggs: []Agg{{Kind: Sum, Col: "v"}, {Kind: CountCol, Col: "v"}}},
		{Where: where, Select: []string{"v"}, OrderBy: "v", OrderDesc: true, Limit: 1000},
		{Select: []string{"k"}, OrderBy: "v", Limit: n - 1},
		{Where: where, Select: []string{"k"}, OrderBy: "k", OrderDesc: true},
	} {
		if err := diffOrdered(t, tb, e, nil, q); err != nil {
			t.Fatalf("ORDER BY %s desc=%v LIMIT %d: %v", q.OrderBy, q.OrderDesc, q.Limit, err)
		}
	}
	twoCols := expr.And(where.Preds[0], expr.MustPred("k", expr.LT, storage.IntValue(n/4)))
	unordered := []Query{
		{Where: where, Select: []string{"k", "v"}, Limit: 1023},
		{Where: where, Select: []string{"k", "v"}, Limit: 1024, Aggs: []Agg{{Kind: Sum, Col: "v"}, {Kind: CountStar}}},
		{Where: where, Select: []string{"v"}, Limit: 1025, Aggs: []Agg{{Kind: CountCol, Col: "v"}}},
		{Where: where, Select: []string{"k"}},
		{Select: []string{"v"}, Limit: 1025},
		{Where: where, Aggs: []Agg{{Kind: Sum, Col: "v"}, {Kind: CountCol, Col: "v"}, {Kind: Sum, Col: "k"}}},
		{Aggs: []Agg{{Kind: Sum, Col: "v"}, {Kind: CountCol, Col: "v"}}},
		{Where: where, GroupBy: "v", Aggs: []Agg{{Kind: CountStar}, {Kind: Sum, Col: "k"}}},
		{Where: twoCols, Aggs: []Agg{{Kind: CountStar}}},
		{Where: twoCols},
	}
	for _, q := range unordered {
		if err := diffUnordered(t, tb, e, q); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
	}

	// Cancellation between two checkpoints of the window still surfaces as
	// ErrCanceled, for every shape, with a LIMIT (no match list to abandon)
	// as without one: every checkpoint sleeps 2ms, the window has four, the
	// deadline is 7ms.
	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	midWindow := []Query{
		{Where: where, Select: []string{"k"}, OrderBy: "k", Limit: 100},
		{Where: where, Select: []string{"k"}, OrderBy: "k"},
		{Where: where, Select: []string{"k"}},
		{Where: where, Aggs: []Agg{{Kind: Sum, Col: "v"}}},
		{Where: where, GroupBy: "v", Aggs: []Agg{{Kind: CountStar}}},
		{Where: twoCols},
	}
	for _, q := range midWindow {
		ctx, cancel := context.WithTimeout(context.Background(), 7*time.Millisecond)
		_, err := e.QueryContext(ctx, q)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%+v: err=%v, want ErrCanceled", q, err)
		}
	}
	restore()
	slow := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxRowsScanned: checkpointRows + 1}})
	midWindow[0].Limit = 5
	for _, q := range midWindow {
		if _, err := slow.Query(q); !errors.Is(err, ErrBudget) {
			t.Fatalf("rows-scanned budget mid-window, %+v: err=%v, want ErrBudget", q, err)
		}
	}
}

// FuzzTopL holds random projections to their references: ordered, to the
// stable-sort twin; unordered, to the reference's first rows. The fuzzer
// picks the predicate seed, the order column, the direction, the limit and
// whether the projection is ordered; the three policies' engines keep
// adapting across inputs.
func FuzzTopL(f *testing.F) {
	const n = 700
	tb := toplTable(f, n, 83)
	engines := []*Engine{toplEngine(f, tb, PolicyNone), toplEngine(f, tb, PolicyStatic), toplEngine(f, tb, PolicyAdaptive)}
	cols := []string{"a", "b", "f", "s", "g", "u"}
	f.Add(int64(1), uint8(0), false, uint16(0), false, true)
	f.Add(int64(2), uint8(1), true, uint16(1), true, true)
	f.Add(int64(3), uint8(4), true, uint16(n-1), false, true)
	f.Add(int64(4), uint8(5), false, uint16(n), true, true)
	f.Add(int64(5), uint8(3), true, uint16(n+1), false, true)
	f.Add(int64(6), uint8(2), false, uint16(100), true, true)
	f.Add(int64(7), uint8(0), false, uint16(0), true, false)
	f.Add(int64(8), uint8(3), false, uint16(1), false, false)
	f.Add(int64(9), uint8(1), false, uint16(100), true, false)
	f.Fuzz(func(t *testing.T, seed int64, col uint8, desc bool, limit uint16, withAggs, ordered bool) {
		rng := rand.New(rand.NewSource(seed))
		var where expr.Conj
		for k := rng.Intn(3); k > 0; k-- {
			where.Preds = append(where.Preds, randomPred(rng))
		}
		orderBy := cols[int(col)%len(cols)]
		q := Query{Where: where, Select: []string{orderBy, "a"}, OrderBy: orderBy, OrderDesc: desc, Limit: int(limit) % (n + 2)}
		if withAggs {
			q.Aggs = []Agg{{Kind: CountStar}, {Kind: Sum, Col: "g"}, {Kind: Max, Col: "b"}}
		}
		for _, e := range engines {
			if !ordered {
				if err := diffUnordered(t, tb, e, Query{Where: q.Where, Select: q.Select, Limit: q.Limit, Aggs: q.Aggs}); err != nil {
					t.Fatalf("%s LIMIT %d: %v", where, q.Limit, err)
				}
				continue
			}
			if err := diffOrdered(t, tb, e, nil, q); err != nil {
				t.Fatalf("%s ORDER BY %s desc=%v LIMIT %d: %v", where, orderBy, desc, q.Limit, err)
			}
		}
	})
}
