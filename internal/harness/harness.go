// Package harness is the registry of the paper's reconstructed
// evaluation — one Experiment per figure, table, ablation and extension
// (fig1–7, tab1–3, abl1, ext1–3) — plus the machinery those entries
// share: one engine builder (newEngine), one timed query loop (run), and
// the Table they emit.
// Each entry generates its workload, runs the policies, and returns the
// series/rows EXPERIMENTS.md reports. Two drivers run registry entries and
// nothing else: cmd/adskip-bench (paper scale, prints tables) and the
// repository's bench_test.go (reduced scale, one testing.B each).
// Performance claims and CI's counter gate come from benchmark/, not from
// here.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

// Config scales the experiment suite. The defaults target an interactive
// laptop run; the CLI raises Rows for paper-scale runs.
type Config struct {
	Rows    int   // column length (default 1<<21)
	Queries int   // queries per measured stream (default 512)
	Seed    int64 // base RNG seed (default 42)
	// StaticZoneRows is the static baseline's zone size (default 4096).
	StaticZoneRows int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 1 << 21
	}
	if c.Queries <= 0 {
		c.Queries = 512
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.StaticZoneRows <= 0 {
		c.StaticZoneRows = 4096
	}
	return c
}

// adaptiveConfig scales adaptive zonemap parameters to the column size so
// experiments behave consistently across Rows settings.
func (c Config) adaptiveConfig() adaptive.Config {
	initial := c.Rows / 256
	if initial < 1024 {
		initial = 1024
	}
	minZone := c.Rows / 65536
	if minZone < 256 {
		minZone = 256
	}
	return adaptive.Config{
		InitialZoneRows: initial,
		MinZoneRows:     minZone,
	}
}

// Table is one reproduced figure/table: a titled grid of cells. Figures
// are emitted as their underlying data series (one row per x-value).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for i := range widths {
		for j := 0; j < widths[i]; j++ {
			fmt.Fprint(w, "-")
		}
		if i < len(widths)-1 {
			fmt.Fprint(w, "  ")
		}
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as CSV (header + rows).
func (t *Table) CSV(w io.Writer) {
	writeCSVRow(w, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered experiment function.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Scan time by data distribution and skipping policy", Fig1Distributions},
		{"fig2", "Per-query adaptation curve (clustered data)", Fig2Convergence},
		{"fig3", "Speedup vs selectivity (semi-sorted data)", Fig3Selectivity},
		{"fig4", "Static zone-size sweep vs adaptive (clustered data)", Fig4Granularity},
		{"fig5", "Workload drift: hot range relocates mid-stream", Fig5Drift},
		{"fig6", "Adversarial uniform data: arbitration overhead bound", Fig6Adversarial},
		{"fig7", "Appends during the workload", Fig7Appends},
		{"tab1", "Metadata footprint and build time", Tab1Metadata},
		{"tab2", "Headline speedup summary", Tab2Summary},
		{"tab3", "Multi-column predicate intersection", Tab3MultiColumn},
		{"abl1", "Ablation: adaptive mechanisms", Abl1Mechanisms},
		{"ext1", "Extension: parallel scan scaling", Ext1Parallel},
		{"ext2", "Extension: column imprints vs zonemaps on bimodal data", Ext2Imprints},
		{"ext3", "Extension: sharded scatter-gather with shard pruning", Ext3Sharded},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared machinery.

// querier is what run measures: a single engine or a shard manager, both
// of which execute engine.Query values.
type querier interface {
	Query(q engine.Query) (*engine.Result, error)
}

// options is the engine configuration every experiment starts from; an
// experiment that varies a knob changes it on the returned value.
func (c Config) options(policy engine.Policy) engine.Options {
	return engine.Options{
		Policy:         policy,
		StaticZoneSize: c.StaticZoneRows,
		Adaptive:       c.adaptiveConfig(),
	}
}

// generate draws cfg.Rows values of dist over the domain [0, cfg.Rows) from
// cfg.Seed; clusters 0 is the generator's default.
func generate(cfg Config, dist workload.Distribution, clusters int) []int64 {
	return workload.Generate(workload.DataSpec{
		N: cfg.Rows, Dist: dist, Domain: int64(cfg.Rows), Clusters: clusters, Seed: cfg.Seed,
	})
}

// newTable creates table "t" with one BIGINT column per value slice: one
// column is named "v", several "c0", "c1", ….
func newTable(cols ...[]int64) *table.Table {
	schema := make(table.Schema, len(cols))
	for c := range cols {
		schema[c] = table.ColumnSpec{Name: "v", Type: storage.Int64}
		if len(cols) > 1 {
			schema[c].Name = fmt.Sprintf("c%d", c)
		}
	}
	tbl := table.MustNew("t", schema)
	for c, vals := range cols {
		col, err := tbl.Column(schema[c].Name)
		if err != nil {
			panic(err)
		}
		for _, v := range vals {
			if err := col.AppendInt(v); err != nil {
				panic(err)
			}
		}
	}
	return tbl
}

// newEngine builds an engine over newTable(cols...) with skipping enabled
// on every column.
func newEngine(opts engine.Options, cols ...[]int64) *engine.Engine {
	e := engine.New(newTable(cols...), opts)
	if err := e.EnableSkipping(); err != nil {
		panic(err)
	}
	return e
}

// countQuery builds the COUNT(*) range query the streams use.
func countQuery(r workload.Range) engine.Query {
	return engine.Query{
		Where: expr.And(expr.MustPred("v", expr.Between,
			storage.IntValue(r.Lo), storage.IntValue(r.Hi))),
		Aggs: []engine.Agg{{Kind: engine.CountStar}},
	}
}

// counts is the stream of COUNT(*) queries over gen's ranges.
func counts(gen *workload.Gen) func(int) (engine.Query, error) {
	return func(int) (engine.Query, error) { return countQuery(gen.Next()), nil }
}

// sums is the stream of SUM(v) queries over gen's ranges: covered windows
// still avoid predicate evaluation but must read data to aggregate, so it
// isolates pure skipping benefit from the covered-count short-circuit.
func sums(gen *workload.Gen) func(int) (engine.Query, error) {
	return func(int) (engine.Query, error) {
		q := countQuery(gen.Next())
		q.Aggs = []engine.Agg{{Kind: engine.Sum, Col: "v"}}
		return q, nil
	}
}

// streamResult is one measured query stream: each query's time and the
// sum of their execution stats.
type streamResult struct {
	perQueryNs []int64
	stats      engine.ExecStats
}

// run executes n queries against e, timing each. next(i) builds query i
// before the clock starts; after(i), when not nil, runs once query i has
// returned. It is the only place the harness executes a query.
func run(e querier, n int, next func(i int) (engine.Query, error), after func(i int)) (streamResult, error) {
	sr := streamResult{perQueryNs: make([]int64, 0, n)}
	for i := 0; i < n; i++ {
		q, err := next(i)
		if err != nil {
			return sr, err
		}
		start := time.Now()
		res, err := e.Query(q)
		if err != nil {
			return sr, err
		}
		sr.perQueryNs = append(sr.perQueryNs, time.Since(start).Nanoseconds())
		sr.stats.Add(res.Stats)
		if after != nil {
			after(i)
		}
	}
	return sr, nil
}

// runStream executes n COUNT(*) queries from gen against e.
func runStream(e querier, gen *workload.Gen, n int) (streamResult, error) {
	return run(e, n, counts(gen), nil)
}

// avgNs returns the mean per-query nanoseconds over the window [from, to).
func (s streamResult) avgNs(from, to int) float64 {
	if to > len(s.perQueryNs) {
		to = len(s.perQueryNs)
	}
	if from >= to {
		return 0
	}
	var sum int64
	for _, ns := range s.perQueryNs[from:to] {
		sum += ns
	}
	return float64(sum) / float64(to-from)
}

// medianNs returns the median per-query nanoseconds over [from, to).
func (s streamResult) medianNs(from, to int) float64 {
	if to > len(s.perQueryNs) {
		to = len(s.perQueryNs)
	}
	if from >= to {
		return 0
	}
	w := append([]int64(nil), s.perQueryNs[from:to]...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	return float64(w[len(w)/2])
}

// fmtNs renders nanoseconds as a human-readable duration with fixed
// precision (µs granularity keeps columns stable across runs).
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", ns/1e6)
	default:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// policies are the three policies compared throughout.
var policies = []engine.Policy{engine.PolicyNone, engine.PolicyStatic, engine.PolicyAdaptive}
