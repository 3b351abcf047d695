package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// bigTable builds a single-column table large enough to exceed the
// parallel threshold.
func bigTable(t testing.TB, n int, dist workload.Distribution) *table.Table {
	t.Helper()
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := tb.Column("v")
	for _, v := range workload.Generate(workload.DataSpec{N: n, Dist: dist, Domain: int64(n), Seed: 5}) {
		if err := col.AppendInt(v); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestParallelCountMatchesSerial holds the COUNT driver's parallel scans to
// its serial one, under every policy and data shape.
func TestParallelCountMatchesSerial(t *testing.T) {
	const n = 1 << 18
	for _, policy := range []Policy{PolicyNone, PolicyStatic, PolicyAdaptive} {
		for _, dist := range []workload.Distribution{workload.Sorted, workload.Uniform, workload.Clustered} {
			opts := Options{Policy: policy}
			if policy == PolicyStatic {
				opts.ZoneSize = 2048
			}
			serialEng := New(bigTable(t, n, dist), opts)
			opts.Parallelism = 8
			parallelEng := New(bigTable(t, n, dist), opts)
			if err := serialEng.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			if err := parallelEng.EnableSkipping("v"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			for q := 0; q < 40; q++ {
				lo := rng.Int63n(n)
				where := expr.And(expr.MustPred("v", expr.Between,
					storage.IntValue(lo), storage.IntValue(lo+rng.Int63n(n/10))))
				query := Query{Where: where, Aggs: []Agg{{Kind: CountStar}}}
				a, err := serialEng.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				b, err := parallelEng.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				if a.Count != b.Count {
					t.Fatalf("%v/%v q%d: serial %d parallel %d", policy, dist, q, a.Count, b.Count)
				}
			}
		}
	}

	// The scans the partitioner must cut: a full scan, which is one plain
	// candidate, an adaptive probe that leaves one candidate spanning the
	// table, and one that leaves covered candidates between scanned ones.
	// Every worker count reports the serial Count and Stats.
	full := New(bigTable(t, n, workload.Uniform), Options{Policy: PolicyNone})
	spanning := New(bigTable(t, n, workload.Sorted), Options{Policy: PolicyAdaptive, ZoneSize: 4096})
	covering := New(bigTable(t, n, workload.Sorted), Options{Policy: PolicyAdaptive, ZoneSize: 4096})
	for _, e := range []*Engine{full, spanning, covering} {
		if err := e.EnableSkipping("v"); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for q := 0; q < 10; q++ {
		lo := rng.Int63n(n)
		cases := map[string]struct {
			e     *Engine
			where expr.Conj
		}{
			"full scan": {full, expr.And(expr.MustPred("v", expr.Between, storage.IntValue(lo), storage.IntValue(lo+rng.Int63n(n/4))))},
			"spanning":  {spanning, expr.And(expr.MustPred("v", expr.GE, storage.IntValue(-lo)))},
			"covering":  {covering, expr.And(expr.MustPred("v", expr.Between, storage.IntValue(lo/2+1), storage.IntValue(lo/2+n/2)))},
		}
		for name, c := range cases {
			serial, zones := fastCount(t, c.e, c.where, 1)
			if name == "spanning" && (len(zones) != 1 || zones[0].Lo != 0 || zones[0].Hi != n) {
				t.Fatalf("%s: probe left %d candidates, want one spanning the table", name, len(zones))
			}
			if name == "covering" && !slices.ContainsFunc(zones, func(z core.CandidateZone) bool { return z.Covered }) {
				t.Fatalf("%s: probe left no covered candidate: %+v", name, zones)
			}
			for _, workers := range []int{2, 4, 8} {
				res, _ := fastCount(t, c.e, c.where, workers)
				if res.Count != serial.Count || res.Stats != serial.Stats {
					t.Fatalf("%s q%d, %d workers: count=%d stats=%+v; serial %d %+v",
						name, q, workers, res.Count, res.Stats, serial.Count, serial.Stats)
				}
			}
		}
	}
}

// fastCount plans where on e and runs the COUNT driver at the given
// parallelism, returning the result and the probe's candidates. No feedback
// follows, so e's skipper is left as it was and every call sees the same
// candidates.
func fastCount(t *testing.T, e *Engine, where expr.Conj, workers int) (*Result, []core.CandidateZone) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncSkippers()
	plans, unsat, err := e.plan(where)
	if err != nil || unsat || len(plans) != 1 {
		t.Fatalf("plan: %d plans, unsat=%v, err=%v", len(plans), unsat, err)
	}
	e.opts.Parallelism = workers
	res := &Result{}
	if err := e.execFastCount(e.newQctx(context.Background()), &plans[0], res, e.tbl.NumRows()); err != nil {
		t.Fatal(err)
	}
	return res, plans[0].res.Zones
}

// TestPartition is the partitioner's table: its groups tile the candidates
// in order, a candidate is cut only where a group ends, and n rows of
// candidates over w <= n workers give w groups.
func TestPartition(t *testing.T) {
	plain := func(lo, hi int) core.CandidateZone { return core.CandidateZone{Lo: lo, Hi: hi} }
	covered := func(lo, hi int) core.CandidateZone { return core.CandidateZone{Lo: lo, Hi: hi, Covered: true} }
	cases := []struct {
		zones   []core.CandidateZone
		workers int
		groups  int
	}{
		{[]core.CandidateZone{plain(0, 1000)}, 4, 4},
		{[]core.CandidateZone{plain(0, 1001)}, 8, 8},
		{[]core.CandidateZone{covered(0, 999)}, 2, 2},
		{[]core.CandidateZone{plain(0, 10), plain(20, 30), covered(30, 50), plain(60, 1000)}, 4, 4},
		{[]core.CandidateZone{plain(0, 900), covered(900, 1000)}, 4, 4},
		{[]core.CandidateZone{plain(0, 100), covered(100, 600), plain(600, 700), covered(700, 800), plain(800, 1200)}, 3, 3},
		{[]core.CandidateZone{plain(0, 10), covered(10, 20), plain(20, 30)}, 8, 8},
		{[]core.CandidateZone{plain(0, 3)}, 8, 3},
	}
	for i, c := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			total := 0
			for _, z := range c.zones {
				total += z.Hi - z.Lo
			}
			groups := partition(c.zones, total, c.workers)
			if len(groups) != c.groups {
				t.Fatalf("%d groups over %d workers, want %d", len(groups), c.workers, c.groups)
			}
			// Walk the pieces against the candidates: each candidate is one
			// piece, or cut into pieces that end their groups.
			type piece struct {
				core.CandidateZone
				last bool // the last piece of its group
			}
			var pieces []piece
			for g, w := range groups {
				if len(w.zones) == 0 {
					t.Fatalf("group %d is empty", g)
				}
				for j, z := range w.zones {
					pieces = append(pieces, piece{z, j == len(w.zones)-1})
				}
			}
			for _, z := range c.zones {
				for lo := z.Lo; lo < z.Hi; {
					if len(pieces) == 0 {
						t.Fatalf("candidate %+v: rows from %d not in any group", z, lo)
					}
					p := pieces[0]
					pieces = pieces[1:]
					want := z
					want.Lo, want.Hi = lo, p.Hi
					if p.CandidateZone != want || p.Hi > z.Hi || (p.Hi < z.Hi && !p.last) {
						t.Fatalf("candidate %+v: piece %+v (last in group: %v)", z, p.CandidateZone, p.last)
					}
					lo = p.Hi
				}
			}
			if len(pieces) > 0 {
				t.Fatalf("%d pieces past the candidates", len(pieces))
			}
		})
	}
}

// Adaptive learning must behave identically under parallel execution:
// observations carry the same per-zone evidence regardless of worker
// partitioning.
func TestParallelAdaptiveStillLearns(t *testing.T) {
	const n = 1 << 18
	e := New(bigTable(t, n, workload.Clustered), Options{Policy: PolicyAdaptive, Parallelism: 4})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	zonesBefore := e.Skipper("v").Metadata().Zones
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 60; q++ {
		lo := rng.Int63n(n - n/100)
		where := expr.And(expr.MustPred("v", expr.Between,
			storage.IntValue(lo), storage.IntValue(lo+int64(n/100))))
		if _, err := e.Query(Query{Where: where, Aggs: []Agg{{Kind: CountStar}}}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Skipper("v").Metadata().Zones <= zonesBefore {
		t.Fatalf("no refinement under parallel execution: %d -> %d",
			zonesBefore, e.Skipper("v").Metadata().Zones)
	}
}

func TestParallelSmallInputStaysSerial(t *testing.T) {
	// Below the threshold the partitioner must not fan out (observable
	// only through correctness here; the fast path is exercised).
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := tb.Column("v")
	for i := int64(0); i < 100; i++ {
		col.AppendInt(i)
	}
	e := New(tb, Options{Policy: PolicyNone, Parallelism: 16})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(Query{
		Where: expr.And(expr.MustPred("v", expr.LT, storage.IntValue(50))),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil || res.Count != 50 {
		t.Fatalf("count=%d err=%v", res.Count, err)
	}
}

func BenchmarkParallelCount(b *testing.B) {
	const n = 1 << 22
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "serial", 2: "2workers", 4: "4workers", 8: "8workers"}[workers], func(b *testing.B) {
			tb := bigTable(b, n, workload.Uniform)
			e := New(tb, Options{Policy: PolicyNone, Parallelism: workers})
			if err := e.EnableSkipping("v"); err != nil {
				b.Fatal(err)
			}
			q := Query{
				Where: expr.And(expr.MustPred("v", expr.Between,
					storage.IntValue(0), storage.IntValue(n/2))),
				Aggs: []Agg{{Kind: CountStar}},
			}
			b.SetBytes(8 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
