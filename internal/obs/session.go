package obs

import "context"

// A query's identity travels from its frontend to its trace as one context
// value, an Origin: the network server sets the session, the client's trace
// ID and the plan-cache marker; a SQL frontend sets the template. The engine
// and the shard manager copy it onto the QueryTrace they allocate, and the
// adskip facade's front door reads it for attribution, so no layer in
// between needs to know who called.

// Origin is where a query came from. Its zero value is an in-process query
// that bypassed every frontend.
type Origin struct {
	// Session is the network session the query arrived on ("conn-<n>" on
	// the server); "" for in-process queries.
	Session string `json:"session,omitempty"`

	// TraceID is the ID the client sent with the request; "" when it sent
	// none. It lets a remote caller find this query's trace in /traces.
	TraceID string `json:"trace_id,omitempty"`

	// Fingerprint is the literal-stripped query template; "" for queries
	// that bypassed a SQL frontend. Workload stats and the pprof label
	// aggregate under it, and a query without one skips attribution.
	Fingerprint string `json:"fingerprint,omitempty"`

	// PlanCached marks a statement served from a statement cache.
	PlanCached bool `json:"plan_cached,omitempty"`
}

// originKey is the private context key for a query's Origin.
type originKey struct{}

// WithOrigin returns a context carrying o in place of any Origin ctx
// carries: every field is o's, none is kept from ctx. A caller that adds
// one field starts from OriginOf(ctx), as WithTemplate does.
func WithOrigin(ctx context.Context, o Origin) context.Context {
	return context.WithValue(ctx, originKey{}, o)
}

// OriginOf returns the Origin carried by ctx, or the zero Origin.
func OriginOf(ctx context.Context) Origin {
	o, _ := ctx.Value(originKey{}).(Origin)
	return o
}

// WithTemplate returns a context whose Origin carries fingerprint as the
// query's template, and ctx itself when fingerprint is "".
func WithTemplate(ctx context.Context, fingerprint string) context.Context {
	if fingerprint == "" {
		return ctx
	}
	o := OriginOf(ctx)
	o.Fingerprint = fingerprint
	return WithOrigin(ctx, o)
}
