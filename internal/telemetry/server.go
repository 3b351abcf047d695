// Package telemetry hosts the engine's embedded observability server: an
// opt-in net/http endpoint exposing Prometheus metrics, pprof profiles,
// recent query traces as JSON, the workload statistics and the adaptation
// ledger.
// Go runtime readings are /metrics series.
//
// The server is strictly read-only and pull-based: it snapshots state the
// engine already maintains (metric registries, trace rings, the ledger and
// its ROI rows) and never blocks the query path beyond the mutex those
// snapshots take. It depends only on obs plus closures supplied by the
// caller, so it stays decoupled from the engine's types.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"adskip/internal/obs"
	"adskip/internal/stats"
)

// Source supplies the server's data. Registry and Traces must be set;
// everything else is optional (its endpoint then serves an empty set).
type Source struct {
	// Registry is the metrics registry behind /metrics.
	Registry *obs.Registry
	// Traces is the ring of recent query traces behind /traces.
	Traces *obs.TraceRing
	// Recovering reports whether the store is still replaying its
	// write-ahead log, the one state in which the process knows it cannot
	// serve: /health answers 503 while it returns true and 200 otherwise.
	// Optional: when nil, /health always answers 200.
	Recovering func() bool
	// Workload is the per-template workload stats table behind /workload.
	// Optional: when nil, /workload serves an empty snapshot.
	Workload *stats.Table
	// Adaptation returns the adaptation-ledger snapshot (zone-lifecycle
	// records plus per-column ROI rows) behind /adaptation, with at most
	// maxDead dead zones of per-column detail. Optional: when nil,
	// /adaptation serves an empty set.
	Adaptation func(maxDead int) obs.AdaptationSnapshot
}

// Server is a running telemetry endpoint. Close shuts down the listener;
// the serving goroutine is gone when it returns.
type Server struct {
	src  Source
	ln   net.Listener
	http *http.Server
	done chan struct{}
}

// Start binds addr ("127.0.0.1:0" when empty — an ephemeral localhost
// port; Server.Addr reports what was bound), registers the Go runtime
// gauges on src.Registry, and serves in one background goroutine.
func Start(addr string, src Source) (*Server, error) {
	if src.Registry == nil || src.Traces == nil {
		return nil, fmt.Errorf("telemetry: Source.Registry and Source.Traces are required")
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	registerRuntimeGauges(src.Registry)
	s := &Server{src: src, ln: ln, done: make(chan struct{})}
	s.http = &http.Server{Handler: s.mux()}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// registerRuntimeGauges exposes Go runtime readings on reg under the
// Prometheus Go collector's names. They are read through runtime/metrics
// when /metrics is scraped, which never stops the world.
func registerRuntimeGauges(reg *obs.Registry) {
	read := func(names ...string) func() int64 {
		return func() int64 {
			samples := make([]metrics.Sample, len(names))
			for i, name := range names {
				samples[i].Name = name
			}
			metrics.Read(samples)
			var sum int64
			for _, smp := range samples {
				if smp.Value.Kind() == metrics.KindUint64 {
					sum += int64(smp.Value.Uint64())
				}
			}
			return sum
		}
	}
	reg.GaugeFunc("go_goroutines", "Number of goroutines that currently exist.",
		read("/sched/goroutines:goroutines"))
	reg.GaugeFunc("go_memstats_heap_alloc_bytes", "Heap bytes allocated and still in use.",
		read("/memory/classes/heap/objects:bytes"))
	reg.GaugeFunc("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.",
		read("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes",
			"/memory/classes/heap/free:bytes", "/memory/classes/heap/released:bytes"))
	reg.GaugeFunc("go_memstats_heap_objects", "Number of allocated heap objects.",
		read("/gc/heap/objects:objects"))
	reg.GaugeFunc("go_gc_cycles", "Completed GC cycles since the process started.",
		read("/gc/cycles/total:gc-cycles"))
}

// Addr returns the bound listen address (useful with ephemeral ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down: in-flight requests get up to five seconds
// to drain, then the listener closes and the serving goroutine exits.
// Safe to call once.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	return err
}

// endpoint is one row of the route table. The mux and the index page are
// both built from it, so the index lists exactly what the server answers.
type endpoint struct {
	path   string
	doc    string // HTML
	handle http.HandlerFunc
}

func (s *Server) endpoints() []endpoint {
	return []endpoint{
		{"/metrics", "Prometheus exposition", s.handleMetrics},
		{"/traces", "recent query traces", s.handleTraces},
		{"/health", "readiness probe (503 while the write-ahead log replays)", s.handleHealth},
		{"/workload", "per-template workload stats (add <code>?sort=time|calls|bytes</code>, <code>?k=N</code>, <code>?shard=N</code>)", s.handleWorkload},
		{"/adaptation", "adaptation ledger: zone-lifecycle provenance + per-column skip ROI (add <code>?table=</code>, <code>?shard=N</code>, <code>?dead=N</code>)", s.handleAdaptation},
		{"/debug/pprof/", "pprof profiles", pprof.Index},
	}
}

// mux wires the route table plus the pprof subpaths the pprof index links.
func (s *Server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/", s.handleIndex)
	for _, ep := range s.endpoints() {
		m.HandleFunc(ep.path, ep.handle)
	}
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// handleIndex lists the endpoints.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>adskip telemetry</title></head><body>\n<h1>adskip telemetry</h1><ul>\n")
	for _, ep := range s.endpoints() {
		fmt.Fprintf(w, "<li><a href=\"%s\">%s</a> — %s</li>\n", ep.path, ep.path, ep.doc)
	}
	fmt.Fprint(w, "</ul></body></html>")
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.src.Registry.WritePrometheus(w)
}

// traceListing is the /traces JSON shape.
type traceListing struct {
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped"`
	Traces  []*obs.QueryTrace `json:"traces"`
}

// handleTraces serves the trace ring as JSON, oldest-first.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	ring := s.src.Traces
	writeJSON(w, traceListing{Total: ring.Total(), Dropped: ring.Dropped(), Traces: ring.Snapshot()})
}

// parseShard reads an optional ?shard=N filter: a 1-based shard number.
// Returns (0, false, nil) when the parameter is absent. Non-numeric
// values are a client error — callers answer 400, never 500 or a
// silently empty set.
func parseShard(r *http.Request) (int, bool, error) {
	v := r.URL.Query().Get("shard")
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("bad shard parameter %q (want a 1-based shard number)", v)
	}
	return n, true, nil
}

// handleHealth is the readiness probe: 503 {"status":"recovering"} while
// Source.Recovering reports a WAL replay in progress, 200 {"status":"ok"}
// otherwise. Latency, errors, skip rate and WAL lag are series on
// /metrics, where an alerting system judges them.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.src.Recovering != nil && s.src.Recovering() {
		status = "recovering"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, struct {
		Status string `json:"status"`
	}{status})
}

// handleWorkload serves the per-template workload stats, top-K by the
// requested sort order. ?sort=time|calls|bytes (default time),
// ?k=N caps the template list (default 50; k=0 returns every template),
// ?shard=N keeps only templates that have scanned that shard (400 when
// out of range).
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sortBy := q.Get("sort")
	if !stats.ValidSort(sortBy) {
		http.Error(w, "bad sort parameter (want time, calls, or bytes)", http.StatusBadRequest)
		return
	}
	k := 50
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad k parameter", http.StatusBadRequest)
			return
		}
		k = n
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The shard filter runs before the top-K cut: cut first, it would
	// answer an empty list whenever the top k templates never scanned the
	// shard and a lesser one did.
	cut := k
	if hasShard {
		cut = 0
	}
	snap := s.src.Workload.Snapshot(sortBy, cut)
	if hasShard {
		// MaxShard is computed over every tracked template, so the range
		// check is stable across k values.
		if shard < 1 || shard > snap.MaxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (workload has shards 1..%d)", shard, snap.MaxShard),
				http.StatusBadRequest)
			return
		}
		kept := snap.Templates[:0]
		for _, ts := range snap.Templates {
			if slices.Contains(ts.Shards, shard) {
				kept = append(kept, ts)
			}
		}
		if k > 0 && len(kept) > k {
			kept = kept[:k]
		}
		snap.Templates = kept
	}
	writeJSON(w, snap)
}

// handleAdaptation serves the adaptation ledger: the retained
// zone-lifecycle records with provenance plus per-column skip-ROI rows.
// ?table= narrows to one table (unknown tables are a 400), ?shard=N to
// one 1-based shard (out of range is a 400), ?dead=N caps per-column
// dead-zone detail (default 16; dead=0 keeps the counts but omits the
// detail). Total/Dropped always report the whole ledger, not the
// filtered view.
func (s *Server) handleAdaptation(w http.ResponseWriter, r *http.Request) {
	if s.src.Adaptation == nil {
		writeJSON(w, obs.AdaptationSnapshot{Events: []obs.LedgerRecord{}, ROI: []obs.ColumnROI{}})
		return
	}
	q := r.URL.Query()
	maxDead := 16
	if v := q.Get("dead"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad dead parameter (want a non-negative count)", http.StatusBadRequest)
			return
		}
		maxDead = n
	}
	shard, hasShard, err := parseShard(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := s.src.Adaptation(maxDead)
	if snap.Events == nil {
		snap.Events = []obs.LedgerRecord{}
	}
	if snap.ROI == nil {
		snap.ROI = []obs.ColumnROI{}
	}
	if table := q.Get("table"); table != "" {
		known := false
		for i := range snap.ROI {
			if snap.ROI[i].Table == table {
				known = true
				break
			}
		}
		if !known {
			for i := range snap.Events {
				if snap.Events[i].Table == table {
					known = true
					break
				}
			}
		}
		if !known {
			http.Error(w, fmt.Sprintf("unknown table %q", table), http.StatusBadRequest)
			return
		}
		events := snap.Events[:0]
		for _, ev := range snap.Events {
			if ev.Table == table {
				events = append(events, ev)
			}
		}
		snap.Events = events
		roi := snap.ROI[:0]
		for _, row := range snap.ROI {
			if row.Table == table {
				roi = append(roi, row)
			}
		}
		snap.ROI = roi
	}
	if hasShard {
		maxShard := 0
		for i := range snap.ROI {
			if snap.ROI[i].Shard > maxShard {
				maxShard = snap.ROI[i].Shard
			}
		}
		for i := range snap.Events {
			if snap.Events[i].Shard > maxShard {
				maxShard = snap.Events[i].Shard
			}
		}
		if shard < 1 || shard > maxShard {
			http.Error(w, fmt.Sprintf("shard %d out of range (ledger has shards 1..%d)", shard, maxShard),
				http.StatusBadRequest)
			return
		}
		events := snap.Events[:0]
		for _, ev := range snap.Events {
			if ev.Shard == shard {
				events = append(events, ev)
			}
		}
		snap.Events = events
		roi := snap.ROI[:0]
		for _, row := range snap.ROI {
			if row.Shard == shard {
				roi = append(roi, row)
			}
		}
		snap.ROI = roi
	}
	writeJSON(w, snap)
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
