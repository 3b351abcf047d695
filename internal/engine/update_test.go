package engine

import (
	"math/rand"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/zonemap"
)

// TestUpdateKeepsSummariesExact updates, under every skipping policy, the
// only row holding a zone's max (after a detour past every value), the
// only one holding a block's max and the only one holding the tail's max,
// each to a value inside the hull: every summary that held the old value
// must shrink to what its rows now derive — the zone's, the adaptive
// zonemap's part's, the block's and the tail's, and an imprint zone's bin
// mask — and VerifySkipping, which checks that every summary equals the
// one its rows derive, must pass and keep the skipper.
func TestUpdateKeepsSummariesExact(t *testing.T) {
	for _, policy := range []Policy{PolicyStatic, PolicyImprint, PolicyAdaptive} {
		t.Run(policy.String(), func(t *testing.T) {
			// Column a holds its row number: 69 zones of 64 rows in two
			// blocks, then a 40-row tail appended after the build.
			tb := buildTable(t, 4400, 1)
			e := newEngine(t, tb, policy)
			for a := int64(4400); a < 4440; a++ {
				if err := e.AppendRow(storage.IntValue(a), storage.IntValue(1),
					storage.FloatValue(1), storage.StringValue("ant")); err != nil {
					t.Fatal(err)
				}
			}
			// A query brings the skipper up to the appended rows; it prunes
			// every block, so the adaptive zonemap does not split.
			if _, err := e.Query(Query{Where: expr.And(intPred("a", expr.Between, -10, -1)), Aggs: []Agg{{Kind: CountStar}}}); err != nil {
				t.Fatal(err)
			}
			// Row 127 goes past every value first, so that the imprint's
			// zone 1 takes the top bin, which no other row of it holds.
			for _, u := range []struct {
				row int
				v   int64
			}{{127, 1_000_000}, {127, 121}, {4399, 4360}, {4439, 4420}} {
				if err := e.Update("a", u.row, storage.IntValue(u.v)); err != nil {
					t.Fatal(err)
				}
			}
			col, err := tb.Column("a")
			if err != nil {
				t.Fatal(err)
			}
			s := e.Skipper("a")
			if err := s.CheckInvariants(col.Vec(), col.Nulls()); err != nil {
				t.Fatalf("after the updates: %v", err)
			}
			var g *zonemap.Grid[expr.Hull, expr.Clause]
			switch s := s.(type) {
			case *zonemap.Grid[expr.Hull, expr.Clause]:
				g = s
			case *adaptive.Zonemap:
				g = &s.Grid
				if p := s.Parts[127/8]; p.Sum != (expr.Hull{Min: 120, Max: 126}) {
					t.Fatalf("part %+v, its rows derive [120, 126]", p)
				}
			}
			if g != nil {
				if len(g.Zones) != 69 || len(g.Blocks) != 2 || g.Rows() != 4440 || g.Indexed() != 4400 {
					t.Fatalf("%d zones, %d blocks over %d rows, %d indexed", len(g.Zones), len(g.Blocks), g.Rows(), g.Indexed())
				}
				for _, c := range []struct {
					what      string
					have, own expr.Hull
				}{
					{"zone 1", g.Zones[1].Sum, expr.Hull{Min: 64, Max: 126}},
					{"zone 68", g.Zones[68].Sum, expr.Hull{Min: 4352, Max: 4398}},
					{"block 1", g.Blocks[1], expr.Hull{Min: 4096, Max: 4398}},
				} {
					if c.have != c.own {
						t.Errorf("%s %+v, its rows derive %+v", c.what, c.have, c.own)
					}
				}
			}
			if err := e.VerifySkipping(); err != nil || e.Skipper("a") == nil {
				t.Fatalf("VerifySkipping = %v, skipper kept: %v", err, e.Skipper("a") != nil)
			}
		})
	}
}

// BenchmarkUpdate times one Update of a seeded random row of a 1 Mi-row
// sorted column, to a random value of its domain, under each skipping
// policy at the default zone size: the cell write and the skipper's
// refresh, which re-summarises the zone (static, imprint) or the part
// (adaptive) holding the row, then re-unions the zone and its block.
func BenchmarkUpdate(b *testing.B) {
	const n = 1 << 20
	for _, policy := range []Policy{PolicyStatic, PolicyImprint, PolicyAdaptive} {
		b.Run(policy.String(), func(b *testing.B) {
			tb := table.MustNew("t", table.Schema{{Name: "a", Type: storage.Int64}})
			col, err := tb.Column("a")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := col.AppendInt(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			e := New(tb, Options{Policy: policy})
			if err := e.EnableSkipping("a"); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Update("a", rng.Intn(n), storage.IntValue(rng.Int63n(n))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
