// Command adskip-bench regenerates the paper's tables and figures: it
// runs entries of the internal/harness experiment registry and prints
// the data series behind the corresponding block of EXPERIMENTS.md.
//
// Usage:
//
//	adskip-bench -list                           # the registry
//	adskip-bench -experiment all                 # full suite, default scale
//	adskip-bench -experiment fig1 -rows 16777216 # paper-scale headline figure
//	adskip-bench -experiment tab2 -csv           # machine-readable output
//
// It is not the performance instrument: claims and the CI counter gate
// come from the repository benchmark (benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"adskip/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		rows       = flag.Int("rows", 1<<21, "rows in the measured column")
		queries    = flag.Int("queries", 512, "queries per measured stream")
		seed       = flag.Int64("seed", 42, "base RNG seed")
		staticZone = flag.Int("static-zone", 4096, "zone size for the static baseline")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, ex := range harness.Experiments() {
			fmt.Printf("%-6s %s\n", ex.ID, ex.Title)
		}
		return
	}

	selected := harness.Experiments()
	if *experiment != "all" {
		ex, ok := harness.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "adskip-bench: unknown experiment %q (try -list)\n", *experiment)
			os.Exit(2)
		}
		selected = []harness.Experiment{ex}
	}

	cfg := harness.Config{Rows: *rows, Queries: *queries, Seed: *seed, StaticZoneRows: *staticZone}
	for _, ex := range selected {
		tbl, err := ex.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adskip-bench: %s: %v\n", ex.ID, err)
			os.Exit(1)
		}
		if *csv {
			tbl.CSV(os.Stdout)
		} else {
			tbl.Fprint(os.Stdout)
		}
	}
}
