package harness

import (
	"fmt"
	"runtime"

	"adskip/internal/engine"
	"adskip/internal/workload"
)

// Ext1Parallel is an extension beyond the paper: intra-query parallel
// scans. The paper's prototype is single-threaded; modern main-memory
// systems partition scans across cores, and data skipping composes with
// that (candidate windows partition across workers). This experiment
// sweeps worker counts on unskippable data (pure scan scaling) and on
// clustered data with adaptive skipping (skipping + parallelism compose).
func Ext1Parallel(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:     "ext1",
		Title:  fmt.Sprintf("parallel scan scaling, N=%d, sel=1%% (GOMAXPROCS=%d)", cfg.Rows, runtime.GOMAXPROCS(0)),
		Header: []string{"workers", "uniform full-scan", "scaling", "clustered adaptive", "combined speedup vs serial none"},
	}
	uniform := generate(cfg, workload.Uniform, 0)
	clustered := generate(cfg, workload.Clustered, 4096)
	genSpec := workload.QuerySpec{
		Kind: workload.UniformRange, Domain: int64(cfg.Rows), Selectivity: 0.01, Seed: cfg.Seed + 12,
	}
	build := func(vals []int64, policy engine.Policy, workers int) *engine.Engine {
		opts := cfg.options(policy)
		opts.Parallelism = workers
		return newEngine(opts, vals)
	}
	var serialFull, serialNone float64
	for _, workers := range []int{1, 2, 4, 8} {
		eUni := build(uniform, engine.PolicyNone, workers)
		srUni, err := runStream(eUni, workload.NewGen(genSpec), cfg.Queries/4)
		if err != nil {
			return nil, err
		}
		uni := srUni.medianNs(0, cfg.Queries/4)
		if workers == 1 {
			serialFull = uni
			serialNone = uni
		}
		eClu := build(clustered, engine.PolicyAdaptive, workers)
		srClu, err := runStream(eClu, workload.NewGen(genSpec), cfg.Queries)
		if err != nil {
			return nil, err
		}
		clu := srClu.medianNs(cfg.Queries/2, cfg.Queries)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmtNs(uni),
			fmt.Sprintf("%.2fx", serialFull/uni),
			fmtNs(clu),
			fmt.Sprintf("%.0fx", serialNone/clu),
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: skipping and intra-query parallelism compose (candidate windows partition across workers)",
		"on a single-core host (GOMAXPROCS=1) scaling is necessarily flat; the table then demonstrates that the parallel path adds no overhead and preserves results")
	return t, nil
}

// Ext2Imprints compares the framework's skipping structures — min/max
// zonemaps (static and adaptive) versus column imprints — on bimodal data
// whose zones are multi-modal: every zone's value hull spans the domain
// gap, so hull-based pruning fails structurally while occurrence-based
// imprints prune mid-gap queries almost entirely. This is the abstract's
// "framework for structures and techniques" made concrete: three
// structures, one Skipper contract, different distribution niches.
func Ext2Imprints(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:    "ext2",
		Title: fmt.Sprintf("skipping structures on bimodal data, N=%d", cfg.Rows),
		Header: []string{"structure", "gap-query time", "gap rows skipped",
			"mode-query time", "mode rows skipped", "metadata"},
	}
	vals := generate(cfg, workload.Bimodal, 0)
	domain := int64(cfg.Rows)
	// Gap queries live in the empty middle 40%; mode queries in the lower
	// mode (bottom 30%). Both are uniform ranges over [lo0, lo0+width).
	runFixed := func(e *engine.Engine, lo0, width int64, n int) (streamResult, error) {
		g := workload.NewGen(workload.QuerySpec{
			Kind: workload.UniformRange, Domain: width, Selectivity: 0.02, Seed: cfg.Seed + 31,
		})
		return run(e, n, func(int) (engine.Query, error) {
			r := g.Next()
			r.Lo, r.Hi = r.Lo+lo0, r.Hi+lo0
			return countQuery(r), nil
		}, nil)
	}
	for _, policy := range []engine.Policy{engine.PolicyNone, engine.PolicyStatic, engine.PolicyImprint, engine.PolicyAdaptive} {
		e := newEngine(cfg.options(policy), vals)
		gapLo := domain * 35 / 100
		gapW := domain * 30 / 100
		srGap, err := runFixed(e, gapLo, gapW, cfg.Queries/2)
		if err != nil {
			return nil, err
		}
		modeW := domain * 25 / 100
		srMode, err := runFixed(e, 0, modeW, cfg.Queries/2)
		if err != nil {
			return nil, err
		}
		md := e.Skipper("v").Metadata()
		total := int64(cfg.Rows) * int64(cfg.Queries/2)
		t.Rows = append(t.Rows, []string{
			policy.String(),
			fmtNs(srGap.medianNs(len(srGap.perQueryNs)/2, len(srGap.perQueryNs))),
			fmt.Sprintf("%.1f%%", float64(srGap.stats.RowsSkipped)/float64(total)*100),
			fmtNs(srMode.medianNs(len(srMode.perQueryNs)/2, len(srMode.perQueryNs))),
			fmt.Sprintf("%.1f%%", float64(srMode.stats.RowsSkipped)/float64(total)*100),
			fmtBytes(md.Bytes),
		})
	}
	t.Notes = append(t.Notes,
		"hull metadata (static/adaptive zonemaps) cannot prune gap queries on multi-modal zones; imprints can",
		"extension: column imprints (Sidirourgos & Kersten 2013) as a second structure under the same Skipper contract")
	return t, nil
}
