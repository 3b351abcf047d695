// Persistence: restart from the table snapshot. A first "process" loads
// data, lets the adaptive zonemap learn from a query stream, and saves the
// table. A second "process" loads the snapshot and enables skipping. Only
// rows persist: its zonemap starts cold and relearns from the queries it
// serves, the way the first one learned, and within a few queries runs
// the stream about as fast as the first process's converged map.
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

// opts keeps the adaptive defaults but for the summary's part size. The
// bands are ~977 rows wide, narrower than a default 1,024-row part, and a
// split cuts a part at most once where its values jump, so at the default
// a band gets no zones of its own: the converged map ran 0.14–0.17 ms/q
// there, and 0.05 ms/q on 256-row parts.
var opts = adskip.Options{
	Policy:      adskip.Adaptive,
	MinZoneRows: 256,
}

// hotQueries runs n hot-range queries drawn from rng and returns their
// average latency.
func hotQueries(db *adskip.DB, rng *rand.Rand, n int) time.Duration {
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

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

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
	// ---- Process 1: load, learn, save the table. ----
	db1 := adskip.Open(opts)
	tab1 := loadTable(db1)
	first := hotQueries(db1, rand.New(rand.NewSource(1)), 20)
	_ = hotQueries(db1, rand.New(rand.NewSource(2)), queries) // the learning stream
	warm := hotQueries(db1, rand.New(rand.NewSource(9)), 100) // steady state after adaptation
	fmt.Printf("process 1: first 20 queries %8.3fms/q, after adaptation %8.3fms/q (%d zones)\n",
		ms(first), ms(warm), tab1.SkipperInfo()["key"].Zones)

	var snap bytes.Buffer
	if err := db1.SaveTable("events", &snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table snapshot: %d bytes\n", snap.Len())

	// ---- Process 2: load the table; the zonemap starts cold. ----
	db2 := adskip.Open(opts)
	tab2, err := db2.LoadTable(bytes.NewReader(snap.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := tab2.EnableSkipping(); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9)) // the 100 queries process 1 ran converged
	cold := hotQueries(db2, rng, 20)
	rest := hotQueries(db2, rng, 80)
	fmt.Printf("process 2: first 20 queries %8.3fms/q, queries 21-100 %8.3fms/q (%d zones); process 1 converged %8.3fms/q\n",
		ms(cold), ms(rest), tab2.SkipperInfo()["key"].Zones, ms(warm))
	fmt.Println("\nexpected: the restarted map relearns within its first queries, then runs at about the converged speed")
}
