package server

import (
	"sync"

	"adskip/internal/obs"
)

// srvMetrics holds the server's metric handles, resolved once at startup
// against the DB's registry — so they surface on the same /metrics
// endpoint as the engine and telemetry counters, with no extra plumbing.
type srvMetrics struct {
	reg *obs.Registry

	connsTotal  *obs.Counter // connections accepted over the server's life
	connsActive *obs.Gauge   // connections currently open
	framesRead  *obs.Counter
	framesSent  *obs.Counter
	bytesRead   *obs.Counter
	bytesSent   *obs.Counter

	inflight *obs.Gauge     // requests currently executing
	latency  *obs.Histogram // request wall-clock seconds, all ops
	// recovering counts requests refused because the DB was still
	// replaying its WAL; rowsInserted counts rows appended via OpInsert.
	recovering   *obs.Counter
	rowsInserted *obs.Counter

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge

	// Per-op request counters and per-kind error counters are resolved
	// lazily (ops and error kinds form small closed sets, but lazily keeps
	// the table in one place) and cached so the hot path stays a map read
	// under RLock plus an atomic add.
	mu       sync.RWMutex
	requests map[string]*obs.Counter
	errors   map[string]*obs.Counter
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	return &srvMetrics{
		reg:            reg,
		connsTotal:     reg.Counter("adskip_server_connections_total", "Client connections accepted."),
		connsActive:    reg.Gauge("adskip_server_active_connections", "Client connections currently open."),
		framesRead:     reg.Counter("adskip_server_frames_read_total", "Protocol frames read from clients."),
		framesSent:     reg.Counter("adskip_server_frames_written_total", "Protocol frames written to clients."),
		bytesRead:      reg.Counter("adskip_server_bytes_read_total", "Bytes read from client connections."),
		bytesSent:      reg.Counter("adskip_server_bytes_written_total", "Bytes written to client connections."),
		inflight:       reg.Gauge("adskip_server_inflight_requests", "Requests currently executing."),
		latency:        reg.Histogram("adskip_server_request_seconds", "Request wall-clock latency, all ops.", obs.LatencyBuckets()),
		recovering:     reg.Counter("adskip_server_recovering_rejected_total", "Requests refused while WAL recovery was in progress."),
		rowsInserted:   reg.Counter("adskip_server_rows_inserted_total", "Rows appended via the insert op."),
		cacheHits:      reg.Counter("adskip_server_stmt_cache_hits_total", "Queries served from the statement cache."),
		cacheMisses:    reg.Counter("adskip_server_stmt_cache_misses_total", "Queries that missed the statement cache and had to parse and plan."),
		cacheEvictions: reg.Counter("adskip_server_stmt_cache_evictions_total", "Statements evicted from the statement cache by its LRU."),
		cacheEntries:   reg.Gauge("adskip_server_stmt_cache_entries", "Statements currently in the statement cache."),
		requests:       make(map[string]*obs.Counter),
		errors:         make(map[string]*obs.Counter),
	}
}

// request bumps the per-op request counter.
func (m *srvMetrics) request(op string) {
	m.lazy(&m.requests, "adskip_server_requests_total", "Requests handled, by op.", "op", op).Inc()
}

// failure bumps the per-kind error counter.
func (m *srvMetrics) failure(kind string) {
	m.lazy(&m.errors, "adskip_server_request_errors_total", "Requests that returned an error, by kind.", "kind", kind).Inc()
}

func (m *srvMetrics) lazy(cache *map[string]*obs.Counter, name, help, key, val string) *obs.Counter {
	m.mu.RLock()
	c, ok := (*cache)[val]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok = (*cache)[val]; ok {
		return c
	}
	c = m.reg.Counter(name, help, obs.L(key, val))
	(*cache)[val] = c
	return c
}
