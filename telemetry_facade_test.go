package adskip

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/sql"
)

// seededDB builds a DB with a table large enough to carry adaptive zone
// structure, runs a query stream so counters and traces accumulate, and
// returns it.
func seededDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	tab, err := db.CreateTable("events", Col("v", Int64), Col("seq", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := tab.Append((i/1000)*1000+i%7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		lo := (i % 20) * 1000
		if _, err := db.Exec("SELECT COUNT(*) FROM events WHERE v BETWEEN " +
			itoa(lo) + " AND " + itoa(lo+6)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestTraceAccountsForQuery: a query's flat trace is its one account. On
// every executor path (COUNT fast path, general path, ORDER BY … LIMIT,
// EXPLAIN ANALYZE, an unsatisfiable predicate), sharded or not, serial or
// parallel, the phases fit inside the total, the row totals are the
// result's stats, and the DB's ring gains exactly that trace — one per
// query, never a shard's partial.
func TestTraceAccountsForQuery(t *testing.T) {
	const rows = 20000 // seededDB's table
	queries := []string{
		"SELECT COUNT(*) FROM events WHERE v BETWEEN 3000 AND 3006",
		"SELECT SUM(seq) FROM events WHERE v BETWEEN 2000 AND 9000 AND seq < 15000",
		"SELECT seq FROM events WHERE v < 5000 ORDER BY seq DESC LIMIT 10",
		"EXPLAIN ANALYZE SELECT COUNT(*) FROM events WHERE v < 4000",
		"SELECT COUNT(*) FROM events WHERE v > 10 AND v < 5",
	}
	for _, shards := range []int{1, 2} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/parallelism=%d", shards, par), func(t *testing.T) {
				db := seededDB(t, Options{Policy: Adaptive, Shards: shards, Parallelism: par})
				defer db.Close()
				// Fill the ring past its capacity.
				for i := 0; i < obs.DefaultTraceRingSize; i++ {
					if _, err := db.Exec("SELECT COUNT(*) FROM events WHERE v < 100"); err != nil {
						t.Fatal(err)
					}
				}
				if n := len(db.Traces()); n != obs.DefaultTraceRingSize {
					t.Fatalf("trace ring holds %d, want %d (capacity)", n, obs.DefaultTraceRingSize)
				}
				wantShards := 0
				if shards > 1 {
					wantShards = shards
				}
				prev := db.Traces()[obs.DefaultTraceRingSize-1]
				for _, q := range queries {
					var res *Result
					var err error
					if rest, ok := strings.CutPrefix(q, "EXPLAIN ANALYZE "); ok {
						_, res, err = db.ExplainAnalyze(context.Background(), rest)
					} else {
						res, err = db.Exec(q)
					}
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					tr := res.Trace
					if tr == nil {
						t.Fatalf("%s: no trace", q)
					}
					if sum := tr.Plan + tr.ShardPrune + tr.Probe + tr.Scan + tr.Feedback; sum > tr.Total {
						t.Errorf("%s: phases sum to %s > total %s", q, sum, tr.Total)
					}
					st := res.Stats
					if tr.RowsScanned != st.RowsScanned || tr.RowsSkipped != st.RowsSkipped ||
						tr.RowsCovered != st.RowsCovered || tr.ZonesProbed != st.ZonesProbed {
						t.Errorf("%s: trace rows scanned/skipped/covered/zones %d/%d/%d/%d, stats %d/%d/%d/%d", q,
							tr.RowsScanned, tr.RowsSkipped, tr.RowsCovered, tr.ZonesProbed,
							st.RowsScanned, st.RowsSkipped, st.RowsCovered, st.ZonesProbed)
					}
					if tr.RowsTotal != rows {
						t.Errorf("%s: RowsTotal = %d, want %d", q, tr.RowsTotal, rows)
					}
					if n := tr.ShardsScanned + tr.ShardsPruned; n != wantShards {
						t.Errorf("%s: shards scanned+pruned = %d, want %d", q, n, wantShards)
					}
					ring := db.Traces()
					if ring[len(ring)-1] != tr || ring[len(ring)-2] != prev {
						t.Fatalf("%s: the ring did not gain exactly this query's trace", q)
					}
					prev = tr
				}
			})
		}
	}
}

// TestQueriesCarryTemplateLabel: a query executes under a pprof label
// naming its template, so CPU and goroutine profiles split by template.
// The front door sets it once per logical query, and a sharded query's
// per-shard workers inherit it. The query is held in its first scan
// checkpoint while the goroutine profile, which prints each goroutine's
// labels, is taken.
func TestQueriesCarryTemplateLabel(t *testing.T) {
	const q = "SELECT COUNT(*) FROM events WHERE v BETWEEN 1000 AND 5000"
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%q:%q", "query_template", sql.Fingerprint(stmt))
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := seededDB(t, Options{Policy: Adaptive, Shards: shards})
			defer db.Close()
			inj := faultinject.New(1).Set(faultinject.ScanDelay,
				faultinject.Rule{Limit: 1, Delay: 500 * time.Millisecond})
			defer faultinject.Activate(inj)()

			done := make(chan error, 1)
			go func() {
				_, err := db.Exec(q)
				done <- err
			}()
			// The injector counts a fire before it sleeps, and the sleep is
			// inside the labelled call.
			for inj.Fires(faultinject.ScanDelay) == 0 {
				runtime.Gosched()
			}
			var profile strings.Builder
			if err := pprof.Lookup("goroutine").WriteTo(&profile, 1); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(profile.String(), want) {
				t.Fatalf("no goroutine carries %s:\n%s", want, profile.String())
			}
		})
	}
}

// TestTelemetryLifecycle proves DB.Close tears the server down without
// leaking goroutines.
func TestTelemetryLifecycle(t *testing.T) {
	db := seededDB(t, Options{Policy: Adaptive})
	before := runtime.NumGoroutine()

	url, err := db.StartTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	if db.TelemetryAddr() == "" || !strings.Contains(url, db.TelemetryAddr()) {
		t.Fatalf("TelemetryAddr %q vs URL %q", db.TelemetryAddr(), url)
	}
	if _, err := db.StartTelemetry(""); err == nil {
		t.Fatal("second StartTelemetry did not fail")
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.TelemetryAddr() != "" {
		t.Fatal("TelemetryAddr non-empty after Close")
	}
	if _, err := http.Get(url + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}

	// The serve goroutine must be gone. Allow the runtime a moment to reap
	// exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Close is idempotent, and a fresh server can start afterwards.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	url2, err := db.StartTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	if url2 == "" {
		t.Fatal("restart returned empty URL")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthFacade: /health is a readiness probe on the one state the DB
// knows it cannot serve in. A plain DB answers 200 ok; a durable DB
// answers 503 recovering until Recover has replayed its log, then 200 ok.
// /alerts does not exist.
func TestHealthFacade(t *testing.T) {
	probe := func(t *testing.T, url string, wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(url + "/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode || body.Status != wantStatus {
			t.Fatalf("/health = %d %q, want %d %q", resp.StatusCode, body.Status, wantCode, wantStatus)
		}
	}
	for _, tc := range []struct {
		name    string
		durable bool
	}{
		{"plain", false},
		{"durable", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts Options
			if tc.durable {
				opts.Durability.Dir = t.TempDir()
			}
			db := Open(opts)
			defer db.Close()
			url, err := db.StartTelemetry("")
			if err != nil {
				t.Fatal(err)
			}
			if tc.durable {
				probe(t, url, http.StatusServiceUnavailable, "recovering")
				if _, err := db.Recover(); err != nil {
					t.Fatal(err)
				}
			}
			probe(t, url, http.StatusOK, "ok")
			resp, err := http.Get(url + "/alerts")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("/alerts = %d, want 404", resp.StatusCode)
			}
		})
	}
}

// TestTelemetryConcurrentWithQueries races the telemetry surface against
// live queries and durable appends: scrapes of /metrics (whose gauge
// functions take the stats-table and WAL locks the queries and appends
// hold), /traces (encoding traces while queries append more) and /health,
// and losing StartTelemetry calls. Run under -race in CI.
func TestTelemetryConcurrentWithQueries(t *testing.T) {
	db := seededDB(t, Options{Policy: Adaptive, Durability: Durability{Dir: t.TempDir()}})
	defer db.Close()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	url, err := db.StartTelemetry("")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probes, lost atomic.Int64
	loop := func(step func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !step() {
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		i := w * 5
		loop(func() bool {
			lo := (i % 20) * 1000
			i++
			if _, err := db.Exec("SELECT COUNT(*) FROM events WHERE v BETWEEN " +
				itoa(lo) + " AND " + itoa(lo+6)); err != nil {
				t.Error(err)
				return false
			}
			return true
		})
	}
	tab, err := db.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	loop(func() bool {
		if err := tab.Append(1, 1); err != nil {
			t.Error(err)
			return false
		}
		return true
	})
	loop(func() bool {
		for _, path := range []string{"/metrics", "/traces", "/health"} {
			resp, err := http.Get(url + path)
			if err != nil {
				t.Error(err)
				return false
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s = %d, want 200", path, resp.StatusCode)
				return false
			}
		}
		probes.Add(1)
		return true
	})
	loop(func() bool {
		if _, err := db.StartTelemetry(""); err == nil {
			t.Error("second StartTelemetry succeeded")
			return false
		}
		lost.Add(1)
		return true
	})

	// Run until every goroutine has made progress and the racing queries
	// show on /metrics.
	queries := func() int64 {
		n, _ := seriesValue(scrape(t, db), `adskip_queries_total{table="events"}`)
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for probes.Load() < 20 || lost.Load() < 20 || queries() < 1000 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("no progress: %d probes, %d losing starts, %d queries",
				probes.Load(), lost.Load(), queries())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestTracesJSONGolden pins the /traces JSON byte for byte, with start
// times and phase timings masked: every key, its place and every count,
// on an unsharded table and on 2-shard hash and range tables, where a
// merged trace's per-predicate counts are its shards' sums.
func TestTracesJSONGolden(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM events WHERE v BETWEEN 3000 AND 3500",
		"SELECT COUNT(*) FROM events WHERE v BETWEEN 3200 AND 5600",
		"SELECT SUM(seq) FROM events WHERE v BETWEEN 2500 AND 9000 AND seq < 15000",
		"SELECT seq FROM events WHERE v < 4500 ORDER BY seq DESC LIMIT 3",
		"SELECT COUNT(*) FROM events WHERE v BETWEEN 3100 AND 5700",
		"SELECT COUNT(*) FROM events WHERE seq < 700",
	}
	start := regexp.MustCompile(`"start": "[^"]*"`)
	phase := regexp.MustCompile(`"(\w+_ns)": \d+`)
	var got strings.Builder
	for _, o := range []Options{
		{Policy: Adaptive, Parallelism: 1},
		{Policy: Adaptive, Parallelism: 1, Shards: 2, ShardKey: "seq", ShardBy: "hash"},
		{Policy: Adaptive, Parallelism: 1, Shards: 2, ShardKey: "seq", ShardBy: "range"},
	} {
		db := Open(o)
		tab, err := db.CreateTable("events", Col("v", Int64), Col("seq", Int64))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			if err := tab.Append((i/1000)*1000+i%7*150, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.EnableSkipping("v", "seq"); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := db.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		url, err := db.StartTelemetry("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(url + "/traces")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		db.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== shards=%d %s\n", o.Shards, o.ShardBy)
		got.Write(phase.ReplaceAll(start.ReplaceAll(body, []byte(`"start": "-"`)), []byte(`"$1": 0`)))
	}
	want, err := os.ReadFile("testdata/traces.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("/traces drifted from testdata/traces.golden; got:\n%s", got.String())
	}
}
