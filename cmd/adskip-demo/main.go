// Command adskip-demo is an interactive SQL REPL over the adaptive column
// store, in the spirit of the paper's demonstration: run queries, then
// inspect how the adaptive zonemap reshaped itself. It is a client of the
// adskip facade; \help lists its meta-commands. Each \gen, \load and
// \loadcsv opens a fresh DB holding one table, so \metrics, \events and
// \top start over with it. Everything else is parsed as SQL, e.g.:
//
//	SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 2000
//	SELECT seq, COUNT(*) FROM data WHERE (v < 100 OR v > 900) GROUP BY seq LIMIT 5
//	EXPLAIN ANALYZE SELECT COUNT(*) FROM data WHERE v < 1000
//
// A snapshot for adskip-server -load is one pipe away:
//
//	printf '\\gen clustered 1000000\n\\save data.adsk\n' | adskip-demo
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"adskip"
	"adskip/internal/adaptive"
	"adskip/internal/workload"
)

const help = `\gen <dist> <rows>  create table "data" (v, seq, noise; dist: sorted|semi-sorted|clustered|uniform|zipf|bimodal)
\load <file>        load a snapshot        \save <file>  save the table
\loadcsv <file>     load a CSV file as table "data" (schema inferred)
\skipping [col]     describe zone metadata (default v)
\metrics            dump the DB's metrics (Prometheus text)
\top                hottest query templates (calls, p95, cpu%) + per-column ROI
\events [n]         show the last n adaptation events (default 20), quarantines included
\rebuild [cols]     build fresh skipping metadata (default all), e.g. after a quarantine
\timeout <dur|off>  cancel statements running longer than dur (e.g. 500ms)
\policy             active policy          \quit         exit
Each \gen, \load and \loadcsv starts a fresh DB: \metrics, \events and \top start over.
SQL: SELECT [cols|aggs] FROM data [WHERE ...] [GROUP BY c] [ORDER BY c [DESC]] [LIMIT n]
     predicates: = <> < <= > >= BETWEEN IN IS [NOT] NULL (a=1 OR a=2)
     EXPLAIN SELECT ... shows the plan; EXPLAIN ANALYZE SELECT ... executes it and
     shows its phases and actual pruning
`

// usage is the argument list of each meta-command that takes a fixed
// number of arguments (one per <...>).
var usage = map[string]string{
	`\gen`: `\gen <dist> <rows>`, `\load`: `\load <file>`, `\loadcsv`: `\loadcsv <file>`,
	`\save`: `\save <file>`, `\timeout`: `\timeout <duration|off>`,
}

// needsTable marks the meta-commands that read the loaded table or its DB.
var needsTable = map[string]bool{
	`\save`: true, `\skipping`: true, `\metrics`: true, `\events`: true,
	`\top`: true, `\rebuild`: true,
}

type repl struct {
	out     *bufio.Writer
	opts    adskip.Options
	timeout time.Duration // \timeout: per-statement deadline (0 = none)
	db      *adskip.DB    // nil until \gen, \load or \loadcsv
	tbl     *adskip.Table // the one table in db
}

func main() {
	if err := run(os.Stdin, os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "adskip-demo: %v\n", err)
		os.Exit(2)
	}
}

// run parses args, then reads statements from in until \quit or EOF.
func run(in io.Reader, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("adskip-demo", flag.ContinueOnError)
	policy := fs.String("policy", "adaptive", "skipping policy: none|static|adaptive|imprint")
	zone := fs.Int("zone", 0, "zone size for every policy (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := adskip.ParsePolicy(*policy)
	if err != nil {
		return err
	}

	r := &repl{out: bufio.NewWriter(out), opts: adskip.Options{Policy: p, ZoneSize: *zone}}
	defer r.out.Flush()
	fmt.Fprintf(r.out, "adskip demo — policy=%s. Type \\help for commands.\n", p)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(r.out, "adskip> ")
		if err := r.out.Flush(); err != nil {
			return err
		}
		if !sc.Scan() {
			fmt.Fprintln(r.out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, `\`):
			if fields := strings.Fields(line); !r.meta(fields[0], fields[1:]) {
				return nil
			}
		case r.db == nil:
			fmt.Fprintln(r.out, `no table loaded (\gen or \load first)`)
		default:
			r.query(line)
		}
	}
}

// meta executes a backslash command; returns false to exit.
func (r *repl) meta(cmd string, args []string) bool {
	if u, ok := usage[cmd]; ok && len(args) != strings.Count(u, "<") {
		fmt.Fprintln(r.out, "usage:", u)
		return true
	}
	if needsTable[cmd] && r.db == nil {
		fmt.Fprintln(r.out, `no table loaded (\gen or \load first)`)
		return true
	}
	var err error
	switch cmd {
	case `\quit`, `\q`:
		return false
	case `\help`:
		fmt.Fprint(r.out, help)
	case `\policy`:
		fmt.Fprintf(r.out, "policy: %s\n", r.opts.Policy)
	case `\timeout`:
		err = r.setTimeout(args[0])
	case `\gen`:
		err = r.gen(args[0], args[1])
	case `\load`, `\loadcsv`:
		err = r.load(args[0], cmd == `\loadcsv`)
	case `\save`:
		err = r.save(args[0])
	case `\skipping`:
		r.skipping(argOr(args, "v"))
	case `\metrics`:
		err = r.db.Metrics().WritePrometheus(r.out)
	case `\events`:
		n, perr := strconv.Atoi(argOr(args, "20"))
		if perr != nil || n <= 0 {
			n = 20
		}
		r.events(n)
	case `\top`:
		r.top()
	case `\rebuild`:
		if err = r.tbl.EnableSkipping(args...); err == nil {
			fmt.Fprintln(r.out, "skipping metadata rebuilt")
		}
	default:
		fmt.Fprintf(r.out, "unknown command %s (try \\help)\n", cmd)
	}
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
	}
	return true
}

func argOr(args []string, def string) string {
	if len(args) > 0 {
		return args[0]
	}
	return def
}

func (r *repl) setTimeout(s string) error {
	d, err := time.ParseDuration(s)
	if s == "off" {
		d, err = 0, nil
	}
	if err != nil || d < 0 {
		return fmt.Errorf("bad duration %q", s)
	}
	r.timeout, s = d, d.String()
	if d == 0 {
		s = "off"
	}
	fmt.Fprintf(r.out, "statement timeout: %s\n", s)
	return nil
}

// open swaps in a fresh DB holding the one table create builds, enables
// skipping on every column and prints the table's banner, note included.
func (r *repl) open(create func(db *adskip.DB) (*adskip.Table, error), note string) error {
	db := adskip.Open(r.opts)
	tbl, err := create(db)
	if err != nil {
		return err
	}
	r.db, r.tbl = db, tbl
	if err := tbl.EnableSkipping(); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "table %q: %d rows%s, skipping on all columns\n", tbl.Name(), tbl.NumRows(), note)
	return nil
}

func (r *repl) gen(dist, rows string) error {
	n, err := strconv.Atoi(rows)
	if err != nil || n <= 0 {
		return fmt.Errorf("bad row count %q", rows)
	}
	d, err := workload.ParseDistribution(dist)
	if err != nil {
		return err
	}
	return r.open(func(db *adskip.DB) (*adskip.Table, error) {
		cols := make([]adskip.ColumnDef, len(workload.DataColumns))
		for i, c := range workload.DataColumns {
			cols[i] = adskip.Col(c.Name, c.Type)
		}
		tbl, err := db.CreateTable("data", cols...)
		if err != nil {
			return nil, err
		}
		return tbl, workload.DataBatches(d, n, workload.DataSeed, tbl.AppendBatch)
	}, ", distribution "+d.String())
}

func (r *repl) load(path string, csv bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	err = r.open(func(db *adskip.DB) (*adskip.Table, error) {
		if csv {
			return db.LoadCSV("data", f, adskip.CSVOptions{})
		}
		return db.LoadTable(f)
	}, " from "+path)
	if err != nil || !csv {
		return err
	}
	for _, cs := range r.tbl.Executor().Table().Schema() {
		fmt.Fprintf(r.out, "  %-16s %s\n", cs.Name, cs.Type)
	}
	return nil
}

func (r *repl) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.db.SaveTable(r.tbl.Name(), f)
	n, _ := f.Seek(0, io.SeekCurrent)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(r.out, "saved %d bytes to %s\n", n, path)
	}
	return err
}

func (r *repl) skipping(col string) {
	if z, ok := r.tbl.Engine().Skipper(col).(*adaptive.Zonemap); ok {
		fmt.Fprint(r.out, z.DescribeZones(24))
	} else if md, ok := r.tbl.SkipperInfo()[col]; ok {
		fmt.Fprintf(r.out, "%s skipper: %d zones, %d bytes, enabled=%v\n", md.Kind, md.Zones, md.Bytes, md.Enabled)
	} else {
		fmt.Fprintf(r.out, "no skipper on column %q\n", col)
	}
}

// events prints the last n adaptation-ledger records: the events of /adaptation.
func (r *repl) events(n int) {
	evs := r.db.Adaptation(0).Events
	if len(evs) == 0 {
		fmt.Fprintln(r.out, "no adaptation events yet")
	}
	for _, ev := range evs[max(0, len(evs)-n):] {
		fmt.Fprintf(r.out, "%s %s\n", ev.Time.Format("15:04:05.000"), ev)
	}
}

// top renders the workload's hottest query templates — the same
// aggregation /workload serves — followed by each column's ROI row from
// /adaptation. Parameterized variants of a template collapse into one
// row; cpu% is the template's share of total recorded execution time.
func (r *repl) top() {
	snap := r.db.Workload(adskip.SortTime, 10)
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
			fmt.Fprintf(r.out, "%7d %6d %9.0f %9.0f %6.1f%% %6.1f%%  %s\n",
				t.Calls, t.Errors, t.MeanUS, t.P95US, 100*t.SkipRatio, 100*t.TotalSeconds/max(total, 1e-9), t.Fingerprint)
		}
	}
	md := r.tbl.SkipperInfo()
	fmt.Fprintf(r.out, "table %q: %d rows\n", r.tbl.Name(), r.tbl.NumRows())
	fmt.Fprintf(r.out, "%-10s %-10s %7s %12s %12s %12s %9s %s\n",
		"column", "kind", "zones", "zone-probes", "skipped", "candidate", "skip%", "state")
	for _, c := range r.db.Adaptation(0).ROI {
		state := "on"
		if !md[c.Column].Enabled {
			state = "off"
		}
		skip := float64(c.RowsSkipped) / max(float64(c.RowsSkipped+c.CandidateRows), 1)
		fmt.Fprintf(r.out, "%-10s %-10s %7d %12d %12d %12d %8.1f%% %s\n",
			c.Column, c.Kind, c.Zones, c.ZoneProbes, c.RowsSkipped, c.CandidateRows, 100*skip, state)
	}
}

func (r *repl) query(line string) {
	words := strings.Fields(line)
	explain := strings.EqualFold(words[0], "EXPLAIN")
	analyze := explain && len(words) > 1 && strings.EqualFold(words[1], "ANALYZE")
	start := time.Now()
	var (
		lines []string
		res   *adskip.Result
		err   error
	)
	ctx := context.Background()
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	if analyze {
		// The plan lines come back beside the executed result, whose
		// statistics the footer reports.
		lines, res, err = r.db.ExplainAnalyze(ctx, line)
	} else {
		res, err = r.db.ExecContext(ctx, line)
	}
	if err != nil {
		fmt.Fprintf(r.out, "error: %v\n", err)
		return
	}
	elapsed := time.Since(start)
	switch {
	case analyze:
		fmt.Fprintln(r.out, strings.Join(lines, "\n"))
	case explain:
		// A plain EXPLAIN executes nothing: its rows are the plan.
		for _, row := range res.Rows {
			fmt.Fprintln(r.out, row[0])
		}
		return
	case len(res.Rows) > 0:
		fmt.Fprintln(r.out, strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			fmt.Fprintln(r.out, tabbed(row))
		}
		fmt.Fprintf(r.out, "(%d rows)\n", len(res.Rows))
	case len(res.Aggs) > 0:
		fmt.Fprintln(r.out, tabbed(res.Aggs))
	default:
		fmt.Fprintf(r.out, "count: %d\n", res.Count)
	}
	fmt.Fprintf(r.out, "-- %.3fms | scanned %d, skipped %d, covered %d rows | %d zone probes\n",
		float64(elapsed.Nanoseconds())/1e6,
		res.Stats.RowsScanned, res.Stats.RowsSkipped, res.Stats.RowsCovered, res.Stats.ZonesProbed)
}

func tabbed(vals []adskip.Value) string {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = v.String()
	}
	return strings.Join(cells, "\t")
}
