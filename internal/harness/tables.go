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
	az := adaptive.New(storage.Vec{W: vals}, nil, engine.DefaultZoneSize, adaptive.DefaultMinZoneRows)
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
	t.Notes = append(t.Notes, "adaptive build reads every row once, to cut the summary parts its splits read later; refinement is paid in each query's feedback")
	return t, nil
}

// Tab2Summary reproduces the headline summary: per-distribution speedup of
// adaptive skipping over no skipping and over static zonemaps, at steady
// state. The abstract's claim is ≈1.4X potential on skippable data and no
// durable loss on arbitrary data. Rows named by a part size run adaptive
// with that MinZoneRows against the distribution's none and static
// streams, to test that the part size needs no tuning; the fine grid is
// where split/merge churn shows.
func Tab2Summary(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:    "tab2",
		Title: fmt.Sprintf("steady-state speedups, N=%d, sel=1%%", cfg.Rows),
		Header: []string{"distribution", "adaptive vs none", "adaptive vs static", "static vs none",
			"splits+merges/query (last quarter)", "zones"},
	}
	quarter := max(cfg.Queries/4, 1)
	dists := []struct {
		dist  workload.Distribution
		parts []int // MinZoneRows per adaptive row; 0 is the default
	}{
		{workload.Sorted, []int{0, 256, 4096}},
		{workload.SemiSorted, []int{0}},
		{workload.Clustered, []int{0, 256, 4096}},
		{workload.Zipf, []int{0, 256, 4096}},
		{workload.Uniform, []int{0}},
	}
	for _, d := range dists {
		vals := generate(cfg, d.dist, 0)
		steady := func(e *engine.Engine, after func(int)) (float64, error) {
			gen := workload.NewGen(workload.QuerySpec{
				Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 9,
			})
			sr, err := run(e, cfg.Queries, counts(gen), after)
			return sr.avgNs(cfg.Queries/2, cfg.Queries), err
		}
		none, err := steady(newEngine(cfg.options(engine.PolicyNone), vals), nil)
		if err != nil {
			return nil, err
		}
		static, err := steady(newEngine(cfg.options(engine.PolicyStatic), vals), nil)
		if err != nil {
			return nil, err
		}
		for _, parts := range d.parts {
			opts := cfg.options(engine.PolicyAdaptive)
			opts.MinZoneRows = parts
			e := newEngine(opts, vals)
			az := e.Skipper("v").(*adaptive.Zonemap)
			var mark adaptive.Stats // at the start of the last quarter
			adp, err := steady(e, func(i int) {
				if i == cfg.Queries-quarter-1 {
					mark = az.Stats()
				}
			})
			if err != nil {
				return nil, err
			}
			name, end := d.dist.String(), az.Stats()
			if parts > 0 {
				name = fmt.Sprintf("%s, %d-row parts", name, parts)
			}
			t.Rows = append(t.Rows, []string{
				name,
				fmt.Sprintf("%.2fx", none/adp),
				fmt.Sprintf("%.2fx", static/adp),
				fmt.Sprintf("%.2fx", none/static),
				fmt.Sprintf("%.2f", float64(end.Splits+end.Merges-mark.Splits-mark.Merges)/float64(quarter)),
				fmt.Sprintf("%d", az.Metadata().Zones),
			})
		}
	}
	t.Notes = append(t.Notes,
		"≥1.00x everywhere for adaptive-vs-none is the robustness claim; >1.4x over static on clustered data is the speedup claim (a tie on sorted)",
		"an \"N-row parts\" row runs adaptive with MinZoneRows N (default 1024) against its distribution's none and static streams")
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
		off  adaptive.Mechanism
	}{
		{"full adaptive", 0},
		{"no split", adaptive.Split},
		{"no merge", adaptive.Merge},
		{"no arbitration", adaptive.Arbitration},
		// Merge and arbitration are redundant safety nets on hopeless
		// data; disabling both isolates what either buys.
		{"split only", adaptive.Merge | adaptive.Arbitration},
	}
	clustered := generate(cfg, workload.Clustered, 4096)
	uniform := generate(cfg, workload.Uniform, 0)
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 10,
	}
	for _, v := range variants {
		ablated := func(vals []int64) *engine.Engine {
			e := newEngine(cfg.options(engine.PolicyAdaptive), vals)
			e.Skipper("v").(*adaptive.Zonemap).Ablate(v.off)
			return e
		}
		eClu := ablated(clustered)
		srClu, err := runStream(eClu, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		srUni, err := runStream(ablated(uniform), workload.NewGen(genSpec), cfg.Queries)
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
