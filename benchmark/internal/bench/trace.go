package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Spans of one
// operation share Req; Parent is the index of the causing span in the
// file's span list, -1 for the operation's root. Replay marks a rung the
// ladder re-ran for the same predicate, as opposed to the real entry call.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Req     int32  `json:"req"`
	Replay  bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory, in one array sized before the traced
// window, and writes them out when the run ends.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

// record appends a finished span and returns its index.
func (t *tracer) record(name string, start, end time.Time, parent, req int32, replay bool) int32 {
	t.spans = append(t.spans, Span{
		Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req, Replay: replay,
	})
	return int32(len(t.spans) - 1)
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Scale    Scale              `json:"scale"`
	PerLayer map[string]Metric  `json:"per_layer"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []Span             `json:"spans"`
}

// write stores the spans and the per-layer table as
// <dir>/trace-<workload>.json and returns the path.
func (t *tracer) write(dir string, cfg Config, perLayer map[string]Metric, counts map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+cfg.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: cfg.Workload, Seed: cfg.Seed, Scale: cfg.Scale,
		PerLayer: perLayer, Counts: counts, Spans: t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
