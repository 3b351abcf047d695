package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adskip/internal/obs"
)

// testSource builds a server source with one trace.
func testSource() Source {
	reg := obs.NewRegistry()
	reg.Counter("t_total", "help").Inc()
	ring := obs.NewTraceRing(8)
	ring.Append(&obs.QueryTrace{Table: "t", Start: time.Now(),
		Plan: time.Microsecond, Probe: 2 * time.Microsecond, Scan: 3 * time.Microsecond,
		Total: 7 * time.Microsecond, Cost: obs.Cost{RowsScanned: 100, RowsSkipped: 80}, RowsTotal: 180})
	return Source{Registry: reg, Traces: ring}
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
	srv, err := Start("", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q, want ephemeral localhost", srv.URL())
	}

	// /traces is JSON carrying each trace's flat phases, and no span tree.
	code, body := get(t, srv.URL()+"/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /traces = %d, want 200", code)
	}
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("GET /traces: invalid JSON: %v\n%s", err, body)
	}
	for _, key := range []string{`"plan_ns": 1000`, `"probe_ns": 2000`, `"scan_ns": 3000`, `"total_ns": 7000`} {
		if !strings.Contains(body, key) {
			t.Errorf("/traces missing %s:\n%s", key, body)
		}
	}
	if strings.Contains(body, `"spans"`) {
		t.Errorf("/traces carries a span tree:\n%s", body)
	}

	// /metrics carries the source's series and the runtime gauges Start
	// registered, read at scrape time.
	code, body = get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "t_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes",
		"go_memstats_heap_sys_bytes", "go_memstats_heap_objects", "go_gc_cycles"} {
		if !strings.Contains(body, "# TYPE "+name+" gauge\n"+name+" ") {
			t.Errorf("/metrics missing runtime gauge %s", name)
		}
	}
	if strings.Contains(body, "\ngo_goroutines 0\n") {
		t.Errorf("go_goroutines reads 0:\n%s", body)
	}

	if code, _ := get(t, srv.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
	if code, _ := get(t, srv.URL()+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

func TestServerMissingSource(t *testing.T) {
	if _, err := Start("", Source{}); err == nil {
		t.Fatal("Start with empty source did not fail")
	}
}

func TestServerOptionalSourcesNil(t *testing.T) {
	src := Source{Registry: obs.NewRegistry(), Traces: obs.NewTraceRing(1)}
	srv, err := Start("", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/adaptation")
	if code != http.StatusOK {
		t.Fatalf("GET /adaptation = %d, want 200", code)
	}
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("GET /adaptation: invalid JSON: %v", err)
	}
}

// TestIndexMatchesMux: every link on the index page answers, every route
// of the table is linked, and the removed endpoints are gone.
func TestIndexMatchesMux(t *testing.T) {
	srv, err := Start("", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, page := get(t, srv.URL()+"/")
	if code != http.StatusOK {
		t.Fatalf("/ = %d", code)
	}
	links := map[string]bool{}
	for _, m := range regexp.MustCompile(`href="([^"]+)"`).FindAllStringSubmatch(page, -1) {
		links[m[1]] = true
		if code, _ := get(t, srv.URL()+m[1]); code == http.StatusNotFound {
			t.Errorf("index links %s, which answers 404", m[1])
		}
	}
	for _, ep := range srv.endpoints() {
		if !links[ep.path] {
			t.Errorf("route %s is not on the index page", ep.path)
		}
	}
	if len(links) != len(srv.endpoints()) {
		t.Errorf("index has %d links for %d routes:\n%s", len(links), len(srv.endpoints()), page)
	}
	if len(links) != 6 {
		t.Errorf("index links %d endpoints, want 6", len(links))
	}
	for _, path := range []string{"/history", "/dash", "/runtime", "/metrics.json", "/skipmap", "/slow"} {
		if code, _ := get(t, srv.URL()+path); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}
}

// TestHealthEndpointGolden locks the /health JSON body: the readiness
// probe answers 200 {"status": "ok"} and nothing else.
func TestHealthEndpointGolden(t *testing.T) {
	src := testSource()
	src.Recovering = func() bool { return false }
	srv, err := Start("", src)
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
	srv, err := Start("", src)
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
	srv, err := Start("", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/health")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/health without a recovery source = %d:\n%s", code, body)
	}
}
