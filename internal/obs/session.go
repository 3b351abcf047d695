package obs

import "context"

// Session identity flows from network frontends to query traces through
// the context: the server stamps each request's context with its
// session/connection ID, and the engine copies it onto the QueryTrace it
// allocates for that query. Keeping the plumbing in obs (rather than the
// engine) lets any frontend — TCP server, future HTTP SQL endpoint —
// tag traces without the engine knowing who called.

// sessionKey is the private context key for the session ID.
type sessionKey struct{}

// WithSession returns a context carrying the given session ID. IDs are
// free-form; the network server uses "conn-<n>".
func WithSession(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, sessionKey{}, id)
}

// SessionFromContext returns the session ID carried by ctx, or "".
func SessionFromContext(ctx context.Context) string {
	id, _ := ctx.Value(sessionKey{}).(string)
	return id
}

// traceKey is the private context key for the client trace ID.
type traceKey struct{}

// WithTrace returns a context carrying a client-generated trace ID. The
// network server stamps each request's context with the ID its client
// sent, and the engine copies it onto the QueryTrace — so a remote caller
// can correlate its own latency measurements with the server's /traces
// entry for the same query.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFromContext returns the trace ID carried by ctx, or "".
func TraceFromContext(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// templateKey is the private context key for the query template
// (fingerprint).
type templateKey struct{}

// WithTemplate returns a context carrying the query's literal-stripped
// fingerprint. SQL frontends stamp it after parsing (or from their
// statement cache); the engine copies it onto the QueryTrace, and the
// adskip facade's front door uses it as the workload-stats and
// pprof-label identity. Queries without a template (Table.Query, direct
// engine API calls, benchmarks) skip the attribution path entirely.
func WithTemplate(ctx context.Context, fingerprint string) context.Context {
	if fingerprint == "" {
		return ctx
	}
	return context.WithValue(ctx, templateKey{}, fingerprint)
}

// TemplateFromContext returns the query fingerprint carried by ctx, or "".
func TemplateFromContext(ctx context.Context) string {
	fp, _ := ctx.Value(templateKey{}).(string)
	return fp
}

// planCachedKey is the private context key for the plan-cache marker.
type planCachedKey struct{}

// WithPlanCached marks ctx as executing a statement served from a
// statement cache, so workload stats can report cache
// hit rates per template.
func WithPlanCached(ctx context.Context) context.Context {
	return context.WithValue(ctx, planCachedKey{}, true)
}

// PlanCachedFromContext reports whether ctx carries the plan-cache marker.
func PlanCachedFromContext(ctx context.Context) bool {
	hit, _ := ctx.Value(planCachedKey{}).(bool)
	return hit
}
