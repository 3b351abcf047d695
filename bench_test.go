package adskip

// One sub-benchmark of BenchmarkExperiments per entry of the paper's
// experiment registry (internal/harness; index in DESIGN.md §4, results in
// EXPERIMENTS.md), run at a reduced scale so `go test -bench=.` completes
// quickly; cmd/adskip-bench runs the same entries at paper scale and prints
// their tables. BenchmarkScan gives the raw per-query policy comparison
// behind the figures. Neither driver is the performance
// instrument: claims and the CI counter gate come from benchmark/.

import (
	"fmt"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/harness"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// benchConfig is the reduced scale for bench runs.
func benchConfig() harness.Config {
	return harness.Config{Rows: 1 << 17, Queries: 64, Seed: 42, StaticZoneRows: 2048}
}

// BenchmarkExperiments regenerates every registry entry's table, one
// sub-benchmark per entry, named by its id.
func BenchmarkExperiments(b *testing.B) {
	cfg := benchConfig()
	for _, ex := range harness.Experiments() {
		b.Run(ex.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPolicyStream measures steady-state per-query latency of a 1% range
// count over the given distribution, one sub-benchmark per policy. The
// engine is warmed with 256 queries before measurement so adaptive
// structures (and arbitration, on hostile data) have converged.
func benchPolicyStream(b *testing.B, dist workload.Distribution) {
	const rows = 1 << 20
	vals := workload.Generate(workload.DataSpec{
		N: rows, Dist: dist, Domain: rows, Seed: 42,
	})
	for _, policy := range []engine.Policy{engine.PolicyNone, engine.PolicyStatic, engine.PolicyAdaptive} {
		b.Run(policy.String(), func(b *testing.B) {
			tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
			col, _ := tbl.Column("v")
			for _, v := range vals {
				if err := col.AppendInt(v); err != nil {
					b.Fatal(err)
				}
			}
			opts := engine.Options{Policy: policy}
			if policy == engine.PolicyStatic {
				opts.ZoneSize = 4096
			}
			e := engine.New(tbl, opts)
			if err := e.EnableSkipping("v"); err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGen(workload.QuerySpec{
				Kind: workload.UniformRange, Domain: rows, Selectivity: 0.01, Seed: 43,
			})
			mkQuery := func() engine.Query {
				r := gen.Next()
				return engine.Query{
					Where: expr.And(expr.MustPred("v", expr.Between,
						storage.IntValue(r.Lo), storage.IntValue(r.Hi))),
					Aggs: []engine.Agg{{Kind: engine.CountStar}},
				}
			}
			// Warm adaptation outside the measured loop.
			for i := 0; i < 256; i++ {
				if _, err := e.Query(mkQuery()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(mkQuery()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScan is the canonical scan-path benchmark family for overhead
// tracking: the always-on observability layer (per-query trace + atomic
// metric updates) must keep these within 2% of an uninstrumented build.
// Sub-benchmarks cover the skipping-friendly and skipping-hostile ends.
func BenchmarkScan(b *testing.B) {
	b.Run("clustered", func(b *testing.B) { benchPolicyStream(b, workload.Clustered) })
	b.Run("uniform", func(b *testing.B) { benchPolicyStream(b, workload.Uniform) })
}

// BenchmarkIngest measures bulk row ingest through the public API.
func BenchmarkIngest(b *testing.B) {
	db := Open(Options{Policy: Adaptive})
	tab, err := db.CreateTable("bench",
		Col("a", Int64), Col("f", Float64), Col("s", String))
	if err != nil {
		b.Fatal(err)
	}
	words := []string{"x", "y", "z"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tab.Append(i, float64(i)*0.5, words[i%3]); err != nil {
			b.Fatal(err)
		}
	}
	_ = fmt.Sprint(tab.NumRows())
}
