package shard

import (
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// TestRowsCoveredEveryShape checks that RowsCovered does not depend on the
// result shape: the same single-predicate query, without LIMIT, charges
// the same covered rows as COUNT(*), SUM, GROUP BY, projection and ORDER BY
// projection, on one engine and on two shards, and every row is scanned,
// skipped or covered exactly once. Each shape runs on a fresh table, so an
// adaptive map meets every shape in the same state.
func TestRowsCoveredEveryShape(t *testing.T) {
	const n = 20000
	schema := table.Schema{{Name: "v", Type: storage.Int64}, {Name: "g", Type: storage.Int64}}
	rows := make([][]storage.Value, n)
	for i := range rows {
		rows[i] = []storage.Value{storage.IntValue(int64(i)), storage.IntValue(int64(i % 7))}
	}
	where := expr.And(expr.MustPred("v", expr.Between, storage.IntValue(3000), storage.IntValue(12999)))
	shapes := []struct {
		name string
		q    engine.Query
	}{
		{"count", engine.Query{Where: where, Aggs: []engine.Agg{{Kind: engine.CountStar}}}},
		{"sum", engine.Query{Where: where, Aggs: []engine.Agg{{Kind: engine.Sum, Col: "v"}}}},
		{"group by", engine.Query{Where: where, GroupBy: "g", Aggs: []engine.Agg{{Kind: engine.CountStar}}}},
		{"projection", engine.Query{Where: where, Select: []string{"v", "g"}}},
		{"order by projection", engine.Query{Where: where, Select: []string{"v"}, OrderBy: "v", OrderDesc: true}},
	}
	for _, policy := range []engine.Policy{engine.PolicyStatic, engine.PolicyAdaptive} {
		opts := engine.Options{Policy: policy, ZoneSize: 512}
		if policy == engine.PolicyAdaptive {
			opts.ZoneSize, opts.MinZoneRows = 1024, 256
		}
		for _, shards := range []int{1, 2} {
			open := func() interface {
				Query(engine.Query) (*engine.Result, error)
			} {
				if shards == 1 {
					tbl := table.MustNew("t", schema)
					e := engine.New(tbl, opts)
					if err := e.AppendRows(rows); err != nil {
						t.Fatal(err)
					}
					if err := e.EnableSkipping("v"); err != nil {
						t.Fatal(err)
					}
					return e
				}
				m, err := New("t", schema, Options{Shards: shards, Key: "g", Mode: ModeHash, Engine: opts})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.AppendRows(rows); err != nil {
					t.Fatal(err)
				}
				if err := m.EnableSkipping("v"); err != nil {
					t.Fatal(err)
				}
				return m
			}
			want := -1
			for _, sh := range shapes {
				res, err := open().Query(sh.q)
				if err != nil {
					t.Fatalf("%v, %d shards, %s: %v", policy, shards, sh.name, err)
				}
				st := res.Stats
				if want < 0 {
					want = st.RowsCovered
					if want == 0 {
						t.Fatalf("%v, %d shards: no covered rows; the test data no longer exercises coverage", policy, shards)
					}
				}
				if st.RowsCovered != want {
					t.Errorf("%v, %d shards, %s: RowsCovered %d, COUNT(*) covers %d", policy, shards, sh.name, st.RowsCovered, want)
				}
				if sum := st.RowsScanned + st.RowsSkipped + st.RowsCovered; sum != n {
					t.Errorf("%v, %d shards, %s: scanned %d + skipped %d + covered %d = %d rows, want %d",
						policy, shards, sh.name, st.RowsScanned, st.RowsSkipped, st.RowsCovered, sum, n)
				}
			}
		}
	}
}
