// Telemetry: the paper's semi-sorted motivation. Sensor readings arrive
// almost ordered by timestamp (several sources, slight interleaving), the
// table keeps growing, and dashboards repeatedly query recent time
// windows. Adaptive zonemaps exploit the near-order, fold appended tails
// into new zones, and keep dashboard latency low without any tuning.
//
// Timing and pruning figures come from the engine's built-in
// observability layer: each Result carries a QueryTrace with
// engine-measured phase timings, and the run ends with a Prometheus-text
// dump of the database's cumulative metrics registry.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"adskip"
)

const (
	initialRows = 400_000
	appendRows  = 100_000
	batches     = 4
	queriesPer  = 64
)

func main() {
	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive})
	tab, err := db.CreateTable("readings",
		adskip.Col("ts", adskip.Int64), // epoch milliseconds, near-sorted
		adskip.Col("sensor", adskip.Int64),
		adskip.Col("value", adskip.Float64),
	)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			// Timestamps advance with small out-of-order jitter: semi-sorted.
			now += rng.Int63n(3)
			ts := now - rng.Int63n(20)
			if err := tab.Append(ts, rng.Int63n(64), rng.NormFloat64()*10+50); err != nil {
				log.Fatal(err)
			}
		}
	}

	ingest(initialRows)
	if err := tab.EnableSkipping("ts"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial load: %d rows spanning ts [0, %d]\n", tab.NumRows(), now)

	dashboard := func(label string) {
		var totalNs int64
		var scanned, skipped int64
		for q := 0; q < queriesPer; q++ {
			// Dashboards look at recent windows: the last ~2% of time.
			width := now / 50
			lo := now - width - rng.Int63n(width)
			sql := fmt.Sprintf(
				"SELECT COUNT(*), AVG(value) FROM readings WHERE ts BETWEEN %d AND %d", lo, lo+width)
			res, err := db.Exec(sql)
			if err != nil {
				log.Fatal(err)
			}
			// The engine times every query itself: no stopwatch needed.
			totalNs += res.Trace.Total.Nanoseconds()
			scanned += int64(res.Stats.RowsScanned)
			skipped += int64(res.Stats.RowsSkipped)
		}
		fmt.Printf("%-28s avg %8.3fms | rows/query: scanned %8d, skipped %8d (%.0f%%)\n",
			label,
			float64(totalNs)/float64(queriesPer)/1e6,
			scanned/int64(queriesPer), skipped/int64(queriesPer),
			float64(skipped)/float64(scanned+skipped)*100)
	}

	dashboard("cold metadata:")
	dashboard("warm (after adaptation):")

	for b := 1; b <= batches; b++ {
		ingest(appendRows)
		dashboard(fmt.Sprintf("after append batch %d:", b))
	}

	info := tab.SkipperInfo()["ts"]
	fmt.Printf("\nfinal ts metadata: %d zones, %d bytes over %d rows (%.4f bytes/row)\n",
		info.Zones, info.Bytes, tab.NumRows(), float64(info.Bytes)/float64(tab.NumRows()))

	if evs := db.Adaptation(0).Events; len(evs) > 0 {
		fmt.Printf("\nadaptation events: %d (last: %s)\n", len(evs), evs[len(evs)-1])
	}

	fmt.Printf("\n-- cumulative metrics (Prometheus text format) --\n")
	if err := db.Metrics().WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
