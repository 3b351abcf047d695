// Command adskip-demo is an interactive SQL REPL over the adaptive column
// store, in the spirit of the paper's demonstration: run queries, then
// inspect how the adaptive zonemap reshaped itself.
//
// Meta-commands:
//
//	\gen <dist> <rows>   create table "data" with a synthetic distribution
//	\load <file>         load a table snapshot (see adskip-gen)
//	\save <file>         save table "data"
//	\skipping [col]      describe zone metadata for a column (default v)
//	\stats               adaptive lifetime counters per column
//	\top                 hottest query templates + per-column skipping
//	\timeout <dur|off>   cancel statements that run longer than dur
//	\quarantine          list columns whose metadata failed and was benched
//	\rebuild [cols]      rebuild quarantined skipping metadata
//	\policy              show the active skipping policy
//	\help                this text
//	\quit                exit
//
// Everything else is parsed as SQL, e.g.:
//
//	SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 2000;
//	SELECT seq, COUNT(*) FROM data WHERE (v < 100 OR v > 900) GROUP BY seq LIMIT 5;
//	EXPLAIN SELECT COUNT(*) FROM data WHERE v < 1000;
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/sql"
	"adskip/internal/stats"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/workload"
)

type repl struct {
	opts    engine.Options
	out     *bufio.Writer
	perq    bool           // \trace: print per-query trace after each statement
	timeout time.Duration  // \timeout: per-statement deadline (0 = none)
	eng     *engine.Engine // current table's engine (nil until \gen or \load)
}

func main() {
	var (
		policy = flag.String("policy", "adaptive", "skipping policy: none|static|adaptive|imprint")
		zone   = flag.Int("static-zone", 65536, "zone size for static policy")
	)
	flag.Parse()

	opts := engine.Options{
		StaticZoneSize: *zone,
		// One registry and ledger for the whole session: \metrics and
		// \events survive table reloads (attach rebuilds the engine).
		Metrics: obs.NewRegistry(),
		Ledger:  obs.NewLedger(0),
	}
	// Workload analytics share the session registry and, like it, survive
	// table reloads: \top aggregates across \gen/\load swaps.
	opts.Stats = stats.New(stats.Options{Registry: opts.Metrics})
	switch *policy {
	case "none":
		opts.Policy = engine.PolicyNone
	case "static":
		opts.Policy = engine.PolicyStatic
	case "adaptive":
		opts.Policy = engine.PolicyAdaptive
	case "imprint":
		opts.Policy = engine.PolicyImprint
	default:
		fmt.Fprintf(os.Stderr, "adskip-demo: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	r := &repl{opts: opts, out: bufio.NewWriter(os.Stdout)}
	defer r.out.Flush()

	fmt.Fprintf(r.out, "adskip demo — policy=%s. Type \\help for commands.\n", *policy)
	r.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(r.out, "adskip> ")
		r.out.Flush()
		if !sc.Scan() {
			fmt.Fprintln(r.out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if !r.meta(line) {
				return
			}
		} else {
			r.query(line)
		}
		r.out.Flush()
	}
}

// meta executes a backslash command; returns false to exit.
func (r *repl) meta(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\help":
		fmt.Fprint(r.out, `\gen <dist> <rows>  create table "data" (dist: sorted|semi-sorted|clustered|uniform|zipf|bimodal)
\load <file>        load a snapshot        \save <file>  save table "data"
\loadcsv <file>     load a CSV file (schema inferred)
\skipping [col]     describe zone metadata \stats        adaptive counters
\metrics            dump engine metrics (Prometheus text)
\top                hottest query templates (calls, p95, cpu%) + per-column ROI
\events [n]         show the last n adaptation events (default 20)
\trace              toggle per-query trace printing
\timeout <dur|off>  cancel statements running longer than dur (e.g. 500ms)
\quarantine         list quarantined columns    \rebuild      rebuild their metadata
\policy             active policy          \quit         exit
SQL: SELECT [cols|aggs] FROM data [WHERE ...] [GROUP BY c] [ORDER BY c [DESC]] [LIMIT n]
     predicates: = <> < <= > >= BETWEEN IN IS [NOT] NULL (a=1 OR a=2)
     EXPLAIN SELECT ... shows the plan; EXPLAIN ANALYZE SELECT ... executes and shows actual pruning
`)
	case "\\policy":
		fmt.Fprintf(r.out, "policy: %s\n", r.opts.Policy)
	case "\\gen":
		if len(fields) != 3 {
			fmt.Fprintln(r.out, "usage: \\gen <dist> <rows>")
			return true
		}
		r.gen(fields[1], fields[2])
	case "\\load":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: \\load <file>")
			return true
		}
		r.load(fields[1])
	case "\\loadcsv":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: \\loadcsv <file.csv>")
			return true
		}
		r.loadCSV(fields[1])
	case "\\save":
		if len(fields) != 2 || r.eng == nil {
			fmt.Fprintln(r.out, "usage: \\save <file> (after \\gen or \\load)")
			return true
		}
		r.save(fields[1])
	case "\\skipping":
		col := "v"
		if len(fields) > 1 {
			col = fields[1]
		}
		r.skipping(col)
	case "\\stats":
		r.stats()
	case "\\metrics":
		if err := r.opts.Metrics.WritePrometheus(r.out); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	case "\\events":
		n := 20
		if len(fields) > 1 {
			if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
				n = v
			}
		}
		r.events(n)
	case "\\trace":
		r.perq = !r.perq
		fmt.Fprintf(r.out, "per-query trace: %v\n", r.perq)
	case "\\timeout":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: \\timeout <duration|off>  (e.g. \\timeout 500ms)")
			return true
		}
		if fields[1] == "off" || fields[1] == "0" {
			r.timeout = 0
			fmt.Fprintln(r.out, "statement timeout: off")
			return true
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d < 0 {
			fmt.Fprintf(r.out, "bad duration %q\n", fields[1])
			return true
		}
		r.timeout = d
		fmt.Fprintf(r.out, "statement timeout: %s\n", d)
	case "\\top":
		r.top()
	case "\\quarantine":
		r.quarantine()
	case "\\rebuild":
		r.rebuild(fields[1:])
	default:
		fmt.Fprintf(r.out, "unknown command %s (try \\help)\n", fields[0])
	}
	return true
}

func (r *repl) gen(dist, rowsStr string) {
	n, err := strconv.Atoi(rowsStr)
	if err != nil || n <= 0 {
		fmt.Fprintln(r.out, "bad row count")
		return
	}
	var d workload.Distribution
	switch dist {
	case "sorted":
		d = workload.Sorted
	case "semi-sorted":
		d = workload.SemiSorted
	case "clustered":
		d = workload.Clustered
	case "uniform":
		d = workload.Uniform
	case "zipf":
		d = workload.Zipf
	case "bimodal":
		d = workload.Bimodal
	default:
		fmt.Fprintf(r.out, "unknown distribution %q\n", dist)
		return
	}
	vals := workload.Generate(workload.DataSpec{N: n, Dist: d, Domain: int64(n), Seed: 42})
	tbl := table.MustNew("data", table.Schema{
		{Name: "v", Type: storage.Int64},
		{Name: "seq", Type: storage.Int64},
	})
	load := func() error {
		batch := table.NewBatcher(tbl)
		for i, v := range vals {
			if err := batch.Add(storage.IntValue(v), storage.IntValue(int64(i))); err != nil {
				return err
			}
		}
		return batch.Flush()
	}
	if err := load(); err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.attach(tbl)
	fmt.Fprintf(r.out, "table \"data\": %d rows, distribution %s, skipping on all columns\n", n, dist)
}

func (r *repl) attach(tbl *table.Table) {
	e := engine.New(tbl, r.opts)
	if err := e.EnableSkipping(); err != nil {
		fmt.Fprintf(r.out, "error enabling skipping: %v\n", err)
	}
	r.eng = e
}

func (r *repl) load(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	defer f.Close()
	tbl, err := table.Read(f)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.attach(tbl)
	fmt.Fprintf(r.out, "loaded table %q: %d rows, %d columns\n", tbl.Name(), tbl.NumRows(), tbl.NumColumns())
}

func (r *repl) loadCSV(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	defer f.Close()
	tbl, err := table.ReadCSV(f, "data", table.CSVOptions{})
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	r.attach(tbl)
	fmt.Fprintf(r.out, "loaded CSV as table %q: %d rows, %d columns\n", tbl.Name(), tbl.NumRows(), tbl.NumColumns())
	for _, cs := range tbl.Schema() {
		fmt.Fprintf(r.out, "  %-16s %s\n", cs.Name, cs.Type)
	}
}

func (r *repl) save(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	var n int64
	err = r.eng.ReadTable(func(t *table.Table) (werr error) {
		n, werr = t.WriteTo(f)
		return werr
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(r.out, "saved %d bytes to %s\n", n, path)
}

func (r *repl) skipping(col string) {
	if r.eng == nil {
		fmt.Fprintln(r.out, "no table loaded (\\gen or \\load first)")
		return
	}
	s := r.eng.Skipper(col)
	if s == nil {
		fmt.Fprintf(r.out, "no skipper on column %q\n", col)
		return
	}
	if z, ok := s.(*adaptive.Zonemap); ok {
		fmt.Fprint(r.out, z.DescribeZones(24))
		return
	}
	md := s.Metadata()
	fmt.Fprintf(r.out, "%s skipper: %d zones, %d bytes, enabled=%v\n", md.Kind, md.Zones, md.Bytes, md.Enabled)
}

func (r *repl) stats() {
	if r.eng == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	for _, cs := range r.eng.Table().Schema() {
		s := r.eng.Skipper(cs.Name)
		if z, ok := s.(*adaptive.Zonemap); ok {
			st := z.Stats()
			fmt.Fprintf(r.out, "%-8s queries=%d splits=%d merges=%d disables=%d enables=%d zones=%d\n",
				cs.Name, st.Queries, st.Splits, st.Merges, st.Disables, st.Enables, z.NumZones())
		}
	}
}

// events prints the last n adaptation-ledger records: the events of /adaptation.
func (r *repl) events(n int) {
	evs := r.opts.Ledger.Records()
	if len(evs) == 0 {
		fmt.Fprintln(r.out, "no adaptation events yet")
		return
	}
	if dropped := r.opts.Ledger.Dropped(); dropped > 0 {
		fmt.Fprintf(r.out, "(%d older events dropped from the ring)\n", dropped)
	}
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	for _, ev := range evs {
		fmt.Fprintf(r.out, "%s %s\n", ev.Time.Format("15:04:05.000"), ev)
	}
}

// top renders the workload's hottest query templates — the same
// aggregation /workload serves — followed by each adaptive column's ROI
// row from /adaptation. Parameterized variants of a template collapse
// into one row; cpu%% is the template's share of total recorded
// execution time.
func (r *repl) top() {
	if r.eng == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	snap := r.opts.Stats.Snapshot(stats.SortTime, 10)
	if len(snap.Templates) == 0 {
		fmt.Fprintln(r.out, "no query templates recorded yet (run some SQL first)")
	} else {
		fmt.Fprintf(r.out, "top templates by time (%d tracked, %d calls recorded):\n",
			snap.TotalTemplates, snap.Recorded)
		fmt.Fprintf(r.out, "%7s %6s %9s %9s %7s %7s  %s\n",
			"calls", "errs", "mean(µs)", "p95(µs)", "skip%", "cpu%", "template")
		var total float64
		for _, t := range snap.Templates {
			total += t.TotalSeconds
		}
		for _, t := range snap.Templates {
			var cpu float64
			if total > 0 {
				cpu = 100 * t.TotalSeconds / total
			}
			fmt.Fprintf(r.out, "%7d %6d %9.0f %9.0f %6.1f%% %6.1f%%  %s\n",
				t.Calls, t.Errors, t.MeanUS, t.P95US, 100*t.SkipRatio, cpu, t.Fingerprint)
		}
	}
	rois, quarantined := r.eng.AdaptationROI(0), r.eng.Quarantined()
	if len(rois)+len(quarantined) == 0 {
		fmt.Fprintln(r.out, "no adaptive skippers (EnableSkipping first)")
		return
	}
	md := r.eng.SkipperMetadata()
	fmt.Fprintf(r.out, "table %q: %d rows\n", r.eng.Table().Name(), r.eng.NumRows())
	fmt.Fprintf(r.out, "%-10s %-10s %7s %12s %12s %12s %9s %s\n",
		"column", "kind", "zones", "zone-probes", "skipped", "candidate", "skip%", "state")
	for _, c := range rois {
		state := "on"
		if !md[c.Column].Enabled {
			state = "off"
		}
		var skip float64
		if probed := c.RowsSkipped + c.CandidateRows; probed > 0 {
			skip = float64(c.RowsSkipped) / float64(probed)
		}
		fmt.Fprintf(r.out, "%-10s %-10s %7d %12d %12d %12d %8.1f%% %s\n",
			c.Column, c.Kind, c.Zones, c.ZoneProbes, c.RowsSkipped, c.CandidateRows, 100*skip, state)
	}
	for col := range quarantined {
		fmt.Fprintf(r.out, "%-10s quarantined\n", col)
	}
}

func (r *repl) quarantine() {
	if r.eng == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	q := r.eng.Quarantined()
	if len(q) == 0 {
		fmt.Fprintln(r.out, "no quarantined columns")
		return
	}
	for col, cause := range q {
		fmt.Fprintf(r.out, "%-8s %v\n", col, cause)
	}
	fmt.Fprintln(r.out, "(quarantined columns run full scans; \\rebuild restores metadata)")
}

func (r *repl) rebuild(cols []string) {
	if r.eng == nil {
		fmt.Fprintln(r.out, "no table loaded")
		return
	}
	if err := r.eng.RebuildSkipping(cols...); err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	fmt.Fprintln(r.out, "skipping metadata rebuilt")
}

func (r *repl) query(line string) {
	if r.eng == nil {
		fmt.Fprintln(r.out, "no table loaded (\\gen or \\load first)")
		return
	}
	ctx := context.Background()
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := sql.ExecContext(ctx, r.eng, line)
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	elapsed := time.Since(start)
	switch {
	case len(res.Rows) > 0:
		fmt.Fprintln(r.out, strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(r.out, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(r.out, "(%d rows)\n", len(res.Rows))
	case len(res.Aggs) > 0:
		cells := make([]string, len(res.Aggs))
		for i, v := range res.Aggs {
			cells[i] = v.String()
		}
		fmt.Fprintln(r.out, strings.Join(cells, "\t"))
	default:
		fmt.Fprintf(r.out, "count: %d\n", res.Count)
	}
	fmt.Fprintf(r.out, "-- %.3fms | scanned %d, skipped %d, covered %d rows | %d zone probes\n",
		float64(elapsed.Nanoseconds())/1e6,
		res.Stats.RowsScanned, res.Stats.RowsSkipped, res.Stats.RowsCovered, res.Stats.ZonesProbed)
	if r.perq && res.Trace != nil {
		for _, l := range res.Trace.Lines(true) {
			fmt.Fprintf(r.out, "-- %s\n", l)
		}
	}
}
