package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adskip/internal/obs"
)

// testSource builds a server source with one trace and a canned skipmap.
func testSource() Source {
	reg := obs.NewRegistry()
	reg.Counter("t_total", "help").Inc()
	ring := obs.NewTraceRing(8)
	root := obs.NewSpan("query")
	root.StartChild("scan").FinishRows(100, 10, 80)
	root.Finish()
	ring.Append(&obs.QueryTrace{Table: "t", Start: root.Start, Root: root})
	return Source{
		Registry: reg,
		Traces:   ring,
		Skipmap: func(maxZones int) []obs.SkipmapTable {
			zones := []obs.SkipmapZone{{Lo: 0, Hi: 64, Min: 1, Max: 9, NonNull: 64, Hits: 3, Misses: 1}}
			if maxZones == 0 {
				zones = nil
			}
			return []obs.SkipmapTable{{Table: "t", Rows: 64, Columns: []obs.SkipmapColumn{{
				Column: "v", Kind: "adaptive", Zones: 1, Enabled: true, ZoneDetail: zones,
			}}}}
		},
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q, want ephemeral localhost", srv.URL())
	}

	// Every JSON endpoint returns 200 and parses.
	for _, path := range []string{"/metrics.json", "/traces", "/slow", "/skipmap", "/runtime"} {
		code, body := get(t, srv.URL()+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
		}
	}

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "t_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	// /traces carries the span tree; ?format=chrome is a trace_event file.
	_, body = get(t, srv.URL()+"/traces")
	if !strings.Contains(body, `"spans"`) || !strings.Contains(body, `"scan"`) {
		t.Fatalf("/traces missing span tree:\n%s", body)
	}
	_, body = get(t, srv.URL()+"/traces?format=chrome")
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil || len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome export: err=%v events=%d\n%s", err, len(chrome.TraceEvents), body)
	}

	// /skipmap default includes zone detail; zones=0 strips it; junk is 400.
	_, body = get(t, srv.URL()+"/skipmap")
	if !strings.Contains(body, `"zone_detail"`) || !strings.Contains(body, `"hits": 3`) {
		t.Fatalf("/skipmap missing zone detail:\n%s", body)
	}
	_, body = get(t, srv.URL()+"/skipmap?zones=0")
	if strings.Contains(body, `"zone_detail"`) || !strings.Contains(body, `"zones_truncated": 1`) {
		t.Fatalf("/skipmap?zones=0 should strip detail and count truncation:\n%s", body)
	}
	if code, _ := get(t, srv.URL()+"/skipmap?zones=junk"); code != http.StatusBadRequest {
		t.Fatalf("/skipmap?zones=junk = %d, want 400", code)
	}

	if code, _ := get(t, srv.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL()+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

func TestServerMissingSource(t *testing.T) {
	if _, err := Start(Options{}, Source{}); err == nil {
		t.Fatal("Start with empty source did not fail")
	}
}

func TestServerOptionalSourcesNil(t *testing.T) {
	src := Source{Registry: obs.NewRegistry(), Traces: obs.NewTraceRing(1)}
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/slow", "/skipmap", "/adaptation"} {
		code, body := get(t, srv.URL()+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
	}
}

// TestCollectorSamplesAndStops covers what the collector adds on top of
// Ring (whose wrap arithmetic TestRing covers): the goroutine fills
// readings oldest-first, and Stop joins it so the ring freezes.
func TestCollectorSamplesAndStops(t *testing.T) {
	c := NewCollector(time.Millisecond, 4)
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Snapshot()) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("collector never filled its ring")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	snap := c.Snapshot()
	if len(snap) != 4 || snap[0].Goroutines <= 0 || snap[3].Time.Before(snap[0].Time) {
		t.Fatalf("ring after Stop: %+v", snap)
	}
	time.Sleep(5 * time.Millisecond)
	if after := c.Snapshot(); after[3].Time != snap[3].Time {
		t.Fatal("collector kept sampling after Stop")
	}
}

// TestHistoryEndpoint serves an adaptation timeline and locks the
// listing envelope: interval, total, then samples, oldest-first.
func TestHistoryEndpoint(t *testing.T) {
	smp := obs.NewSampler(time.Hour, 8, func(h *obs.HistorySample) {
		h.Queries = 7
		h.Columns = append(h.Columns, obs.HistoryColumn{Table: "t", Column: "v", SkipRatio: 0.5, Zones: 3, Enabled: true})
	})
	defer smp.Stop()
	src := testSource()
	src.History = smp
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/history")
	if code != http.StatusOK {
		t.Fatalf("/history = %d, want 200", code)
	}
	var listing struct {
		IntervalNS int64               `json:"interval_ns"`
		Total      uint64              `json:"total"`
		Samples    []obs.HistorySample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("invalid /history JSON: %v\n%s", err, body)
	}
	if listing.IntervalNS != int64(time.Hour) || listing.Total != 1 || len(listing.Samples) != 1 {
		t.Fatalf("listing = interval %d, total %d, %d samples", listing.IntervalNS, listing.Total, len(listing.Samples))
	}
	if s := listing.Samples[0]; s.Queries != 7 || len(s.Columns) != 1 || s.Columns[0].Column != "v" {
		t.Fatalf("sample did not survive serving: %+v", listing.Samples[0])
	}
	// Envelope key order is part of the contract (scripts cut on it).
	if !strings.Contains(body, `"interval_ns"`) ||
		strings.Index(body, `"interval_ns"`) > strings.Index(body, `"total"`) ||
		strings.Index(body, `"total"`) > strings.Index(body, `"samples"`) {
		t.Fatalf("/history envelope keys out of order:\n%s", body)
	}

	// With no sampler the endpoint still answers with an empty listing.
	srv2, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	code, body = get(t, srv2.URL()+"/history")
	if code != http.StatusOK {
		t.Fatalf("/history without sampler = %d, want 200", code)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("invalid empty /history JSON: %v\n%s", err, body)
	}
	if len(listing.Samples) != 0 {
		t.Fatalf("empty listing has %d samples", len(listing.Samples))
	}
}

// TestDashEndpoint: the dashboard is a self-contained HTML page wired to
// the JSON endpoints it polls.
func TestDashEndpoint(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dash = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/dash Content-Type = %q, want text/html", ct)
	}
	page := string(body)
	for _, want := range []string{"<!DOCTYPE html>", "/history", "/skipmap", "/adaptation", "renderAdaptation", "prefers-color-scheme"} {
		if !strings.Contains(page, want) {
			t.Fatalf("/dash page missing %q", want)
		}
	}
}

// TestHealthEndpointGolden locks the /health JSON body: the readiness
// probe answers 200 {"status": "ok"} and nothing else.
func TestHealthEndpointGolden(t *testing.T) {
	src := testSource()
	src.Recovering = func() bool { return false }
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusOK {
		t.Fatalf("/health = %d, want 200", code)
	}
	const want = "{\n  \"status\": \"ok\"\n}\n"
	if body != want {
		t.Errorf("/health JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}
	if code, _ := get(t, srv.URL()+"/alerts"); code != http.StatusNotFound {
		t.Fatalf("/alerts = %d, want 404", code)
	}
}

// TestHealthEndpointRecovers: /health answers 503 recovering while the
// store replays its log and 200 ok once it is done (the probe reads the
// state on every request, nothing is latched).
func TestHealthEndpointRecovers(t *testing.T) {
	var recovering atomic.Bool
	recovering.Store(true)
	src := testSource()
	src.Recovering = recovering.Load
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "recovering"`) {
		t.Fatalf("/health while recovering = %d:\n%s", code, body)
	}
	recovering.Store(false)
	code, body = get(t, srv.URL()+"/health")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/health after recovery = %d:\n%s", code, body)
	}
}

// TestHealthEndpointDisabled: a source with no recovery state (no WAL)
// is always ready.
func TestHealthEndpointDisabled(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/health without a recovery source = %d:\n%s", code, body)
	}
}
