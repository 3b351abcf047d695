// Command adskip-load drives an adskip-server with closed-loop load:
// N connections each issue COUNT(*) range (or point) queries drawn from
// a Zipf-skewed template pool, as fast as the server answers them.
//
// Usage:
//
//	adskip-load -addr 127.0.0.1:7878 -conns 64 -duration 10s -domain 1000000
//	adskip-load -addr 127.0.0.1:7878 -timing
//
// With -timing every request carries a trace ID and asks the server for
// its latency breakdown; the report then attributes client-observed
// latency to server execution, server-side queueing, and the network.
//
// With -insert-frac a fraction of requests become batched inserts (the
// target table must have the adskip-gen schema: v BIGINT, seq BIGINT,
// noise DOUBLE), and -retries arms client-side retry of retryable
// refusals — requests refused while the server replays its WAL or is
// overloaded, then answered on a later attempt, count as successes. The retry
// volume is reported separately.
//
// The exit status is 1 if any request failed (or, under -timing, if any
// breakdown violated its sanity invariants), so scripts can assert an
// error-free run. Retries alone never fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"adskip/internal/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7878", "server address")
		conns    = flag.Int("conns", 64, "concurrent connections")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		table    = flag.String("table", "data", "target table")
		col      = flag.String("col", "v", "predicate column")
		domain   = flag.Int64("domain", 1<<20, "predicate value domain [0,domain)")
		tmpls    = flag.Int("templates", 64, "distinct query templates")
		zipfS    = flag.Float64("zipf", 1.2, "Zipf skew across templates (>1)")
		sel      = flag.Float64("selectivity", 0.01, "fraction of the domain per range predicate")
		point    = flag.Bool("point", false, "equality predicates instead of ranges")
		prepared = flag.Bool("prepared", false, "use prepare/exec instead of query text")
		seed     = flag.Int64("seed", 1, "RNG seed")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		timing   = flag.Bool("timing", false, "request server-side latency breakdowns and print a network/queue/server attribution table")
		insFrac  = flag.Float64("insert-frac", 0, "fraction of requests that are inserts instead of queries (target table must have the adskip-gen schema)")
		insBatch = flag.Int("insert-batch", 16, "rows per insert request")
		retries  = flag.Int("retries", 0, "client retries for retryable refusals (recovering / overloaded); retried-then-succeeded requests are not errors")
		wlURL    = flag.String("workload", "", "after the run, GET this telemetry /workload URL and print the top templates; exit non-zero if it answers but reports no templates")
		skipMin  = flag.Float64("assert-skip-rate", 0, "after the run, exit non-zero unless the aggregate skip rate across all templates (fetched from the -workload URL) is at least this floor in (0,1]; 0 = off")
	)
	flag.Parse()

	rep := loadgen.Run(loadgen.Options{
		Addr:        *addr,
		Conns:       *conns,
		Duration:    *duration,
		Table:       *table,
		Col:         *col,
		Domain:      *domain,
		Templates:   *tmpls,
		ZipfS:       *zipfS,
		Selectivity: *sel,
		Point:       *point,
		Prepared:    *prepared,
		Seed:        *seed,
		Timeout:     *timeout,
		Timing:      *timing,

		InsertFraction: *insFrac,
		InsertBatch:    *insBatch,
		Retries:        *retries,
	})
	fmt.Println(rep)
	if *timing && rep.TimingViolations > 0 {
		fmt.Fprintf(os.Stderr, "adskip-load: %d timing breakdowns violated sanity invariants\n",
			rep.TimingViolations)
		os.Exit(1)
	}
	if *timing && rep.TimedRequests == 0 && rep.Requests > 0 {
		fmt.Fprintln(os.Stderr, "adskip-load: -timing was set but the server returned no breakdowns (old server?)")
		os.Exit(1)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "adskip-load: %d of %d requests failed\n",
			rep.Errors, rep.Requests+rep.Errors)
		os.Exit(1)
	}
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "adskip-load: no requests completed")
		os.Exit(1)
	}
	if *wlURL != "" {
		if err := printWorkload(*wlURL); err != nil {
			fmt.Fprintf(os.Stderr, "adskip-load: %v\n", err)
			os.Exit(1)
		}
	}
	if *skipMin != 0 {
		if err := assertSkipRate(*wlURL, *skipMin); err != nil {
			fmt.Fprintf(os.Stderr, "adskip-load: %v\n", err)
			os.Exit(1)
		}
	}
}

// assertSkipRate fetches every template from a telemetry /workload
// endpoint, folds rows skipped and rows read into one end-of-run
// aggregate skip rate, and fails unless that rate clears the floor — a
// load run can then double as a pruning-quality acceptance check: the
// traffic it just generated must actually have been skipped, not merely
// answered.
func assertSkipRate(url string, min float64) error {
	if min <= 0 || min > 1 {
		return fmt.Errorf("assert-skip-rate: floor %v outside (0,1]", min)
	}
	if url == "" {
		return fmt.Errorf("assert-skip-rate: needs the telemetry /workload URL (set -workload)")
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url + "?sort=time&k=0") // k=0: every template, not the top-K view
	if err != nil {
		return fmt.Errorf("assert-skip-rate: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("assert-skip-rate: %s answered %d", url, resp.StatusCode)
	}
	var snap struct {
		Templates []struct {
			RowsRead    int64 `json:"rows_read"`
			RowsSkipped int64 `json:"rows_skipped"`
		} `json:"templates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("assert-skip-rate: decode %s: %w", url, err)
	}
	var read, skipped int64
	for _, t := range snap.Templates {
		read += t.RowsRead
		skipped += t.RowsSkipped
	}
	if read+skipped == 0 {
		return fmt.Errorf("assert-skip-rate: %s reports no scanned rows — nothing to rate", url)
	}
	rate := float64(skipped) / float64(read+skipped)
	fmt.Printf("skip rate: %.3f (%d skipped / %d candidate rows)\n", rate, skipped, read+skipped)
	if rate < min {
		return fmt.Errorf("assert-skip-rate: aggregate skip rate %.3f below floor %.3f", rate, min)
	}
	return nil
}

// printWorkload fetches a telemetry /workload endpoint and renders the
// top templates the run just produced — a quick answer to "who was
// asking?". An answering endpoint with an empty template table is an
// error: the load generator definitely sent queries, so empty means
// attribution is broken somewhere between the server and the stats
// table.
func printWorkload(url string) error {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url + "?sort=time&k=10")
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("workload: %s answered %d", url, resp.StatusCode)
	}
	var snap struct {
		Templates []struct {
			Fingerprint string  `json:"fingerprint"`
			Calls       int64   `json:"calls"`
			P95US       float64 `json:"p95_us"`
			SkipRatio   float64 `json:"skip_ratio"`
			TotalSec    float64 `json:"total_seconds"`
		} `json:"templates"`
		TotalTemplates int   `json:"total_templates"`
		Recorded       int64 `json:"recorded_calls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("workload: decode %s: %w", url, err)
	}
	if len(snap.Templates) == 0 {
		return fmt.Errorf("workload: %s reports no templates — queries were sent but none were attributed", url)
	}
	var total float64
	for _, t := range snap.Templates {
		total += t.TotalSec
	}
	fmt.Printf("workload: top %d of %d templates (%d calls recorded)\n",
		len(snap.Templates), snap.TotalTemplates, snap.Recorded)
	fmt.Printf("%7s %10s %7s %7s  %s\n", "calls", "p95(µs)", "skip%", "cpu%", "template")
	for _, t := range snap.Templates {
		var cpu float64
		if total > 0 {
			cpu = 100 * t.TotalSec / total
		}
		fmt.Printf("%7d %10.0f %6.1f%% %6.1f%%  %s\n",
			t.Calls, t.P95US, 100*t.SkipRatio, cpu, t.Fingerprint)
	}
	return nil
}
