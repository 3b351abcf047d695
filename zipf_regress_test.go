package adskip

import (
	"testing"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// The zipf tests share one column (2 Mi rows, data seed 42) and one stream
// of 1% COUNT ranges (query seed 43): 128 warm-up queries, then 512 steady.
const (
	zipfRows              = 1 << 21
	zipfWarm, zipfSteadyQ = 128, 512
)

func zipfEngine(vals []int64, opts engine.Options) *engine.Engine {
	tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	col, _ := tbl.Column("v")
	for _, v := range vals {
		col.AppendInt(v)
	}
	e := engine.New(tbl, opts)
	e.EnableSkipping("v")
	return e
}

func zipfQueries() func() engine.Query {
	gen := workload.NewGen(workload.QuerySpec{Kind: workload.UniformRange, Domain: zipfRows, Selectivity: 0.01, Seed: 43})
	return func() engine.Query {
		r := gen.Next()
		return engine.Query{
			Where: expr.And(expr.MustPred("v", expr.Between, storage.IntValue(r.Lo), storage.IntValue(r.Hi))),
			Aggs:  []engine.Agg{{Kind: engine.CountStar}},
		}
	}
}

func TestZipfRegression(t *testing.T) {
	const rows = zipfRows
	vals := workload.Generate(workload.DataSpec{N: rows, Dist: workload.Zipf, Domain: rows, Seed: 42})
	build := func(policy engine.Policy) *engine.Engine {
		return zipfEngine(vals, engine.Options{Policy: policy})
	}
	// Both engines answer the same stream query by query, so a drift in the
	// machine's speed lands on both sums alike: a shared box moves by ±20%
	// over the seconds one policy's queries take, most of the 25% this test
	// allows, and interleaving holds the ratio within ±4%. Which engine goes
	// first alternates per query, and the mean is taken over 512 steady
	// queries: on a loaded 2-core box (the package tests running beside it),
	// a few-millisecond preemption landing on one engine moved the ratio of
	// a 128-query window to 0.74..1.44; over 512 alternating queries it
	// stays within 0.87..1.08.
	engines := []*engine.Engine{build(engine.PolicyNone), build(engine.PolicyAdaptive)}
	const warm, steadyQ = zipfWarm, zipfSteadyQ
	var steady [2]time.Duration
	next := zipfQueries()
	for q := 0; q < warm+steadyQ; q++ {
		qr := next()
		for k := range engines {
			i := (k + q) % 2
			start := time.Now()
			if _, err := engines[i].Query(qr); err != nil {
				t.Fatal(err)
			}
			if q >= warm {
				steady[i] += time.Since(start)
			}
		}
	}
	none, adp := steady[0]/steadyQ, steady[1]/steadyQ
	t.Logf("zipf: none=%v adaptive=%v ratio=%.2f", none, adp, float64(none)/float64(adp))
	if float64(adp) > 1.25*float64(none) {
		t.Fatalf("adaptive regresses on zipf: none=%v adaptive=%v", none, adp)
	}
}

// TestZipfStructuralEvents replays TestZipfRegression's column and stream
// on one adaptive engine and counts, with no clock, the splits and merges
// of the stream's last quarter (its last 160 queries). At the defaults the
// map settles: at most 0.05 events a query. On 256-row parts a merged cold
// run is re-warmed by one pruned probe and split by the next scan, so the
// map churns; that count is a ratchet, recorded when tab2 first showed it,
// which a change may lower and must not raise.
func TestZipfStructuralEvents(t *testing.T) {
	const total, last = zipfWarm + zipfSteadyQ, (zipfWarm + zipfSteadyQ) / 4
	vals := workload.Generate(workload.DataSpec{N: zipfRows, Dist: workload.Zipf, Domain: zipfRows, Seed: 42})
	for _, tc := range []struct {
		name  string
		parts int // MinZoneRows
		max   int // splits + merges over the last quarter
	}{
		{"defaults", 0, last * 5 / 100},
		{"256-row parts", 256, 7540},
	} {
		e := zipfEngine(vals, engine.Options{Policy: engine.PolicyAdaptive, MinZoneRows: tc.parts})
		z := e.Skipper("v").(*adaptive.Zonemap)
		next := zipfQueries()
		var mark adaptive.Stats
		for q := 0; q < total; q++ {
			if q == total-last {
				mark = z.Stats()
			}
			if _, err := e.Query(next()); err != nil {
				t.Fatal(err)
			}
		}
		end := z.Stats()
		events := end.Splits + end.Merges - mark.Splits - mark.Merges
		t.Logf("%s: %d splits+merges over the last %d queries (%.2f a query), %d zones",
			tc.name, events, last, float64(events)/last, z.Metadata().Zones)
		if events > tc.max {
			t.Errorf("%s: %d splits+merges over the last %d queries, want at most %d", tc.name, events, last, tc.max)
		}
	}
}
