// Persistence: warm restarts. A first "process" loads data, lets the
// adaptive zonemap learn from a query stream, and snapshots both the table
// and the learned skipping metadata. A second "process" restores both and
// gets converged-query performance from its very first query — the
// refinement paid for yesterday is not re-paid today.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"adskip"
	"adskip/internal/workload"
)

const (
	rows    = 2_000_000
	queries = 800
)

// opts scales adaptive granularity to the dataset (the same scaling the
// experiment harness uses).
var opts = adskip.Options{
	Policy: adskip.Adaptive,
	Adaptive: adskip.AdaptiveConfig{
		InitialZoneRows: rows / 256,
		// Below the band width (~977 rows): a split cuts each equal-width part
		// at most once where its values jump, so a band gets zones of its own
		// only from parts narrower than it.
		MinZoneRows: 256,
	},
}

// hotQueries measures a short hot-range stream and returns avg latency.
func hotQueries(db *adskip.DB, n int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	for q := 0; q < n; q++ {
		lo := int64(rows/4) + rng.Int63n(rows/10)
		sql := fmt.Sprintf("SELECT COUNT(*) FROM events WHERE key BETWEEN %d AND %d", lo, lo+rows/500)
		start := time.Now()
		if _, err := db.Exec(sql); err != nil {
			log.Fatal(err)
		}
		total += time.Since(start)
	}
	return total / time.Duration(n)
}

func loadTable(db *adskip.DB) *adskip.Table {
	tab, err := db.CreateTable("events", adskip.Col("key", adskip.Int64))
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range workload.Generate(workload.DataSpec{
		N: rows, Dist: workload.Clustered, Domain: rows, Clusters: 2048, Seed: 5,
	}) {
		if err := tab.Append(v); err != nil {
			log.Fatal(err)
		}
	}
	if err := tab.EnableSkipping(); err != nil {
		log.Fatal(err)
	}
	return tab
}

func main() {
	// ---- Process 1: learn, then snapshot. ----
	db1 := adskip.Open(opts)
	tab1 := loadTable(db1)

	cold := hotQueries(db1, 20, 1)
	_ = hotQueries(db1, queries, 2) // the learning stream
	warm := hotQueries(db1, 100, 9) // steady state after adaptation
	fmt.Printf("process 1: first queries %8.3fms/q, after adaptation %8.3fms/q (%d zones)\n",
		float64(cold.Nanoseconds())/1e6, float64(warm.Nanoseconds())/1e6,
		tab1.SkipperInfo()["key"].Zones)

	var tableSnap, skipSnap bytes.Buffer
	if err := db1.SaveTable("events", &tableSnap); err != nil {
		log.Fatal(err)
	}
	if err := tab1.SaveSkipping("key", &skipSnap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshots: table %d bytes, learned metadata %d bytes\n",
		tableSnap.Len(), skipSnap.Len())

	// ---- Process 2a: restore the table only (cold metadata). ----
	db2 := adskip.Open(opts)
	tab2, err := db2.LoadTable(bytes.NewReader(tableSnap.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := tab2.EnableSkipping(); err != nil {
		log.Fatal(err)
	}
	coldRestart := hotQueries(db2, 20, 3)

	// ---- Process 2b: restore table AND learned metadata (warm). ----
	db3 := adskip.Open(opts)
	tab3, err := db3.LoadTable(bytes.NewReader(tableSnap.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := tab3.LoadSkipping("key", bytes.NewReader(skipSnap.Bytes())); err != nil {
		log.Fatal(err)
	}
	warmRestart := hotQueries(db3, 20, 3)

	fmt.Printf("restart without metadata: first queries %8.3fms/q\n", float64(coldRestart.Nanoseconds())/1e6)
	fmt.Printf("restart with metadata:    first queries %8.3fms/q (%d zones restored)\n",
		float64(warmRestart.Nanoseconds())/1e6, tab3.SkipperInfo()["key"].Zones)
	fmt.Println("\nexpected: the metadata-restored engine starts at converged speed")
}
