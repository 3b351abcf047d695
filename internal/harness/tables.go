package harness

import (
	"fmt"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
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
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Clustered, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
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
	acfg := cfg.adaptiveConfig()
	start := time.Now()
	az := adaptive.New(storage.Vec{W: vals}, nil, acfg)
	build := time.Since(start)
	md := az.Metadata()
	e := buildEngineFromValues(cfg, vals, engine.PolicyAdaptive)
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
		for _, policy := range policies {
			e, domain := buildEngine(cfg, dist, policy)
			gen := workload.NewGen(workload.QuerySpec{
				Kind: workload.UniformRange, Domain: domain, Selectivity: 0.01, Seed: cfg.Seed + 9,
			})
			sr, err := runStream(e, gen, cfg.Queries)
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
	// Build a k-column table per policy; columns use different seeds so
	// their cluster layouts are independent and intersection compounds.
	build := func(policy engine.Policy) *engine.Engine {
		schema := make(table.Schema, k)
		for c := 0; c < k; c++ {
			schema[c] = table.ColumnSpec{Name: fmt.Sprintf("c%d", c), Type: storage.Int64}
		}
		tbl := table.MustNew("t", schema)
		for c := 0; c < k; c++ {
			col, _ := tbl.Column(fmt.Sprintf("c%d", c))
			for _, v := range workload.Generate(workload.DataSpec{
				N: cfg.Rows, Dist: workload.Clustered, Domain: domain, Seed: cfg.Seed + int64(c),
			}) {
				if err := col.AppendInt(v); err != nil {
					panic(err)
				}
			}
		}
		e := engine.New(tbl, engine.Options{
			Policy: policy, StaticZoneSize: cfg.StaticZoneRows, Adaptive: cfg.adaptiveConfig(),
		})
		if err := e.EnableSkipping(); err != nil {
			panic(err)
		}
		return e
	}
	engines := map[engine.Policy]*engine.Engine{}
	for _, p := range []engine.Policy{engine.PolicyNone, engine.PolicyStatic} {
		engines[p] = build(p)
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
		var staticScanned, noneScanned int64
		for _, p := range []engine.Policy{engine.PolicyNone, engine.PolicyStatic} {
			e := engines[p]
			var total int64
			var scanned int64
			for _, q := range queries {
				start := time.Now()
				res, err := e.Query(q)
				if err != nil {
					return nil, err
				}
				total += time.Since(start).Nanoseconds()
				scanned += int64(res.Stats.RowsScanned)
			}
			times[p] = float64(total) / float64(len(queries))
			if p == engine.PolicyStatic {
				staticScanned = scanned / int64(len(queries))
			} else {
				noneScanned = scanned / int64(len(queries))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmtNs(times[engine.PolicyNone]),
			fmtNs(times[engine.PolicyStatic]),
			fmt.Sprintf("%d", staticScanned),
			fmt.Sprintf("%.1f%%", (1-float64(staticScanned)/float64(noneScanned))*100),
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
	clustered := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Clustered, Domain: int64(cfg.Rows),
		Clusters: 4096, Seed: cfg.Seed,
	})
	uniform := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Uniform, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
	// Baseline for overhead.
	noneEng := buildEngineFromValues(cfg, uniform, engine.PolicyNone)
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 10,
	}
	srNone, err := runStream(noneEng, workload.NewGen(genSpec), cfg.Queries)
	if err != nil {
		return nil, err
	}
	noneSteady := srNone.avgNs(cfg.Queries/2, cfg.Queries)
	for _, v := range variants {
		acfg := cfg.adaptiveConfig()
		v.mod(&acfg)
		mk := func(vals []int64) *engine.Engine {
			tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
			col, _ := tbl.Column("v")
			for _, x := range vals {
				if err := col.AppendInt(x); err != nil {
					panic(err)
				}
			}
			e := engine.New(tbl, engine.Options{Policy: engine.PolicyAdaptive, Adaptive: acfg})
			if err := e.EnableSkipping("v"); err != nil {
				panic(err)
			}
			return e
		}
		eClu := mk(clustered)
		srClu, err := runStream(eClu, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		eUni := mk(uniform)
		srUni, err := runStream(eUni, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		uniSteady := srUni.medianNs(cfg.Queries/2, cfg.Queries)
		t.Rows = append(t.Rows, []string{
			v.name,
			fmtNs(srClu.medianNs(cfg.Queries/2, cfg.Queries)),
			fmtNs(uniSteady),
			fmt.Sprintf("%.0f", float64(srUni.zonesProbed)/float64(cfg.Queries)),
			fmt.Sprintf("%d", eClu.Skipper("v").Metadata().Zones),
		})
	}
	_ = noneSteady
	t.Notes = append(t.Notes,
		"no-split loses the clustered speedup; no-arbitration keeps probing uniform data every query (probes/query stays high)")
	return t, nil
}

// Abl2SplitFanout reproduces the split-fanout ablation: how many sub-zones
// each split produces trades convergence speed against metadata growth.
func Abl2SplitFanout(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "abl2",
		Title:  fmt.Sprintf("split fanout sweep, clustered, N=%d, sel=1%%", cfg.Rows),
		Header: []string{"fanout", "first-quarter avg", "steady avg", "zones", "metadata"},
	}
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: workload.Clustered, Domain: int64(cfg.Rows),
		Clusters: 4096, Seed: cfg.Seed,
	})
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 11,
	}
	for _, fanout := range []int{2, 4, 8, 16, 32} {
		acfg := cfg.adaptiveConfig()
		acfg.SplitParts = fanout
		tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
		col, _ := tbl.Column("v")
		for _, x := range vals {
			if err := col.AppendInt(x); err != nil {
				panic(err)
			}
		}
		e := engine.New(tbl, engine.Options{Policy: engine.PolicyAdaptive, Adaptive: acfg})
		if err := e.EnableSkipping("v"); err != nil {
			panic(err)
		}
		sr, err := runStream(e, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		md := e.Skipper("v").Metadata()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", fanout),
			fmtNs(sr.avgNs(0, cfg.Queries/4)),
			fmtNs(sr.avgNs(cfg.Queries/2, cfg.Queries)),
			fmt.Sprintf("%d", md.Zones),
			fmtBytes(md.Bytes),
		})
	}
	t.Notes = append(t.Notes, "higher fanout converges faster but holds more zones")
	return t, nil
}
