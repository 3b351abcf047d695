package harness

import (
	"fmt"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/workload"
	"adskip/internal/zonemap"
)

// Tab1Metadata reproduces the metadata-cost table: structure size and
// build time for static zonemaps across zone sizes, and for adaptive
// zonemaps before and after converging on a 1%-selectivity stream.
func Tab1Metadata(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "tab1",
		Title:  fmt.Sprintf("metadata footprint, clustered, N=%d", cfg.Rows),
		Header: []string{"structure", "zones", "metadata bytes", "bytes/row", "build time"},
	}
	vals := generate(cfg, workload.Clustered, 0)
	for zs := 256; zs <= cfg.Rows; zs *= 16 {
		start := time.Now()
		s := zonemap.Build(storage.Vec{W: vals}, nil, zs)
		build := time.Since(start)
		md := s.Metadata()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("static/%d", zs),
			fmt.Sprintf("%d", md.Zones),
			fmtBytes(md.Bytes),
			fmt.Sprintf("%.4f", float64(md.Bytes)/float64(cfg.Rows)),
			fmtNs(float64(build.Nanoseconds())),
		})
	}
	start := time.Now()
	az := adaptive.New(storage.Vec{W: vals}, nil, cfg.adaptiveConfig())
	build := time.Since(start)
	md := az.Metadata()
	e := newEngine(cfg.options(engine.PolicyAdaptive), vals)
	t.Rows = append(t.Rows, []string{
		"adaptive (initial)",
		fmt.Sprintf("%d", md.Zones),
		fmtBytes(md.Bytes),
		fmt.Sprintf("%.4f", float64(md.Bytes)/float64(cfg.Rows)),
		fmtNs(float64(build.Nanoseconds())),
	})
	gen := workload.NewGen(workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 8,
	})
	if _, err := runStream(e, gen, cfg.Queries); err != nil {
		return nil, err
	}
	md = e.Skipper("v").Metadata()
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("adaptive (after %d queries)", cfg.Queries),
		fmt.Sprintf("%d", md.Zones),
		fmtBytes(md.Bytes),
		fmt.Sprintf("%.4f", float64(md.Bytes)/float64(cfg.Rows)),
		"-",
	})
	t.Notes = append(t.Notes, "adaptive build cost is a coarse initial pass; refinement is paid inside queries")
	return t, nil
}

// Tab2Summary reproduces the headline summary: per-distribution speedup of
// adaptive skipping over no skipping and over static zonemaps, at steady
// state. The abstract's claim is ≈1.4X potential on skippable data and no
// durable loss on arbitrary data.
func Tab2Summary(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "tab2",
		Title:  fmt.Sprintf("steady-state speedups, N=%d, sel=1%%", cfg.Rows),
		Header: []string{"distribution", "adaptive vs none", "adaptive vs static", "static vs none"},
	}
	dists := []workload.Distribution{workload.Sorted, workload.SemiSorted, workload.Clustered, workload.Zipf, workload.Uniform}
	for _, dist := range dists {
		steady := map[engine.Policy]float64{}
		vals := generate(cfg, dist, 0)
		for _, policy := range policies {
			gen := workload.NewGen(workload.QuerySpec{
				Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 9,
			})
			sr, err := runStream(newEngine(cfg.options(policy), vals), gen, cfg.Queries)
			if err != nil {
				return nil, err
			}
			steady[policy] = sr.avgNs(cfg.Queries/2, cfg.Queries)
		}
		t.Rows = append(t.Rows, []string{
			dist.String(),
			fmt.Sprintf("%.2fx", steady[engine.PolicyNone]/steady[engine.PolicyAdaptive]),
			fmt.Sprintf("%.2fx", steady[engine.PolicyStatic]/steady[engine.PolicyAdaptive]),
			fmt.Sprintf("%.2fx", steady[engine.PolicyNone]/steady[engine.PolicyStatic]),
		})
	}
	t.Notes = append(t.Notes,
		"≥1.00x everywhere for adaptive-vs-none is the robustness claim; >1.4x on clustered/sorted is the speedup claim")
	return t, nil
}

// Tab3MultiColumn reproduces intersection pruning: conjunctions over 1–4
// clustered columns, each predicate at 10% selectivity. Candidate windows
// intersect across columns, so pruning compounds.
func Tab3MultiColumn(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "tab3",
		Title:  fmt.Sprintf("multi-column conjunctions, clustered, N=%d, per-column sel=10%%", cfg.Rows),
		Header: []string{"predicate columns", "none", "static", "rows scanned (static)", "scan reduction"},
	}
	const k = 4
	domain := int64(cfg.Rows)
	// A k-column table per policy; columns use different seeds so their
	// cluster layouts are independent and intersection compounds.
	cols := make([][]int64, k)
	for c := range cols {
		cc := cfg
		cc.Seed += int64(c)
		cols[c] = generate(cc, workload.Clustered, 0)
	}
	engines := map[engine.Policy]*engine.Engine{}
	for _, p := range []engine.Policy{engine.PolicyNone, engine.PolicyStatic} {
		engines[p] = newEngine(cfg.options(p), cols...)
	}
	gens := make([]*workload.Gen, k)
	for c := 0; c < k; c++ {
		gens[c] = workload.NewGen(workload.QuerySpec{
			Kind: workload.UniformRange, Domain: domain, Selectivity: 0.10, Seed: cfg.Seed + 20 + int64(c),
		})
	}
	for m := 1; m <= k; m++ {
		// Build a fresh stream of conjunctions over the first m columns.
		queries := make([]engine.Query, cfg.Queries/4)
		for qi := range queries {
			var conj expr.Conj
			for c := 0; c < m; c++ {
				r := gens[c].Next()
				conj.Preds = append(conj.Preds, expr.MustPred(fmt.Sprintf("c%d", c),
					expr.Between, storage.IntValue(r.Lo), storage.IntValue(r.Hi)))
			}
			queries[qi] = engine.Query{Where: conj, Aggs: []engine.Agg{{Kind: engine.CountStar}}}
		}
		times := map[engine.Policy]float64{}
		scanned := map[engine.Policy]int{}
		for _, p := range []engine.Policy{engine.PolicyNone, engine.PolicyStatic} {
			sr, err := run(engines[p], len(queries), func(i int) (engine.Query, error) { return queries[i], nil }, nil)
			if err != nil {
				return nil, err
			}
			times[p] = sr.avgNs(0, len(queries))
			scanned[p] = sr.stats.RowsScanned / len(queries)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmtNs(times[engine.PolicyNone]),
			fmtNs(times[engine.PolicyStatic]),
			fmt.Sprintf("%d", scanned[engine.PolicyStatic]),
			fmt.Sprintf("%.1f%%", (1-float64(scanned[engine.PolicyStatic])/float64(scanned[engine.PolicyNone]))*100),
		})
	}
	t.Notes = append(t.Notes, "scan reduction compounds as candidate windows intersect across columns")
	return t, nil
}

// Abl1Mechanisms reproduces the mechanism ablation: adaptive zonemaps with
// split, merge, or arbitration disabled, on the distribution each
// mechanism exists for.
func Abl1Mechanisms(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "abl1",
		Title:  fmt.Sprintf("adaptive mechanism ablation, N=%d, sel=1%%", cfg.Rows),
		Header: []string{"variant", "clustered steady", "uniform steady", "uniform probes/query", "zones (clustered)"},
	}
	variants := []struct {
		name string
		mod  func(*adaptive.Config)
	}{
		{"full adaptive", func(*adaptive.Config) {}},
		{"no split", func(c *adaptive.Config) { c.DisableSplit = true }},
		{"no merge", func(c *adaptive.Config) { c.DisableMerge = true }},
		{"no arbitration", func(c *adaptive.Config) { c.DisableArbitration = true }},
		// Merge and arbitration are redundant safety nets on hopeless
		// data; disabling both isolates what either buys.
		{"split only", func(c *adaptive.Config) { c.DisableMerge = true; c.DisableArbitration = true }},
	}
	clustered := generate(cfg, workload.Clustered, 4096)
	uniform := generate(cfg, workload.Uniform, 0)
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 10,
	}
	for _, v := range variants {
		opts := cfg.options(engine.PolicyAdaptive)
		v.mod(&opts.Adaptive)
		eClu := newEngine(opts, clustered)
		srClu, err := runStream(eClu, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		srUni, err := runStream(newEngine(opts, uniform), workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		uniSteady := srUni.medianNs(cfg.Queries/2, cfg.Queries)
		t.Rows = append(t.Rows, []string{
			v.name,
			fmtNs(srClu.medianNs(cfg.Queries/2, cfg.Queries)),
			fmtNs(uniSteady),
			fmt.Sprintf("%.0f", float64(srUni.stats.ZonesProbed)/float64(cfg.Queries)),
			fmt.Sprintf("%d", eClu.Skipper("v").Metadata().Zones),
		})
	}
	t.Notes = append(t.Notes,
		"no-split loses the clustered speedup; no-arbitration keeps probing uniform data every query (probes/query stays high)")
	return t, nil
}
