package adskip

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adskip/internal/faultinject"
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

func TestTraceRingAndSlowLog(t *testing.T) {
	db := seededDB(t, Options{Policy: Adaptive, TraceRingSize: 8, SlowQueryThreshold: time.Nanosecond})
	defer db.Close()
	traces := db.Traces()
	if len(traces) != 8 {
		t.Fatalf("trace ring holds %d, want 8 (capacity)", len(traces))
	}
	for _, tr := range traces {
		if tr.Root == nil {
			t.Fatal("ring trace missing span tree")
		}
		if !tr.Slow {
			t.Error("1ns threshold should mark every query slow")
		}
		names := map[string]bool{}
		for _, c := range tr.Root.Children() {
			names[c.Name] = true
		}
		for _, want := range []string{"parse", "plan", "prune", "scan"} {
			if !names[want] {
				t.Fatalf("span tree missing %q child: %v", want, tr.Root.TreeLines())
			}
		}
	}
	if len(db.SlowTraces()) == 0 {
		t.Fatal("slow log empty despite 1ns threshold")
	}
	// Without a threshold the slow log stays empty.
	db2 := seededDB(t, Options{Policy: Adaptive})
	defer db2.Close()
	if n := len(db2.SlowTraces()); n != 0 {
		t.Fatalf("slow log has %d entries with no threshold", n)
	}
}

// TestQueriesCarryTemplateLabel: a query executes under a pprof label
// naming its template, so CPU and goroutine profiles split by template.
// Two places set it: the engine for an unsharded table, and the shard
// manager for a sharded one, whose per-shard engines record no workload
// and set none. The query is held in its first scan checkpoint while the
// goroutine profile, which prints each goroutine's labels, is taken.
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
// hold) and /health, and losing StartTelemetry calls. Run under -race in
// CI.
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
		for _, path := range []string{"/metrics", "/health"} {
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
