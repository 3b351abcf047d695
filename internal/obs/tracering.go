package obs

import "sync"

// DefaultTraceRingSize is the trace ring capacity used when none is given.
const DefaultTraceRingSize = 256

// TraceRing is a bounded, concurrency-safe ring buffer of completed query
// traces. The adskip facade appends one entry per logical query (a
// pointer copy); when full, the oldest traces are dropped and counted.
// Snapshot returns the retained traces oldest-first, so the telemetry
// server can serve "the last N queries" without stopping the engine.
type TraceRing struct {
	mu   sync.Mutex
	ring *Ring[*QueryTrace]
}

// NewTraceRing returns a ring holding the last capacity traces
// (DefaultTraceRingSize when capacity <= 0).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRingSize
	}
	return &TraceRing{ring: NewRing[*QueryTrace](capacity)}
}

// Append records one completed trace. The ring takes ownership of the
// pointer; traces must not be mutated after appending.
func (r *TraceRing) Append(t *QueryTrace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	*r.ring.Push() = t
	r.mu.Unlock()
}

// Snapshot returns a chronological (oldest-first) copy of the retained
// traces.
func (r *TraceRing) Snapshot() []*QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.AppendTo(make([]*QueryTrace, 0, r.ring.Len()))
}

// Len returns the number of retained traces.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Total returns the number of traces ever appended.
func (r *TraceRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Dropped returns how many traces the ring has evicted.
func (r *TraceRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}
