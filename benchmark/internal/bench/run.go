package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"adskip"
	"adskip/internal/storage"
)

// Config is one invocation of the benchmark.
type Config struct {
	Workload string
	Seed     int64
	Seconds  int       // requested length of the timed window
	Trace    bool      // traced run: per-layer metrics instead of end-to-end
	Scale    Scale     // "" means full
	OutDir   string    // where the traced run writes trace-<workload>.json
	Scratch  string    // parent of the WAL directories the run creates and removes
	Log      io.Writer // human-readable detail (sample counts, slice ranges); nil discards
	// Phase, when set, is updated with the name of the phase in progress
	// so a watchdog can say where a hung run stopped.
	Phase *atomic.Value
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run prints as the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// outcome is what a workload hands back to Run.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	// counts are the exact counters of a traced run: values that must
	// repeat between two runs of one commit with one seed.
	counts map[string]float64
	tracer *tracer
}

// env is what every workload gets.
type env struct {
	cfg  Config
	size sizing
}

func (e *env) phase(name string) {
	if e.cfg.Phase != nil {
		e.cfg.Phase.Store(name)
	}
	e.logf("phase: %s", name)
}

func (e *env) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		fmt.Fprintf(e.cfg.Log, format+"\n", args...)
	}
}

// windowOps is the operation count of the untraced window.
func (e *env) windowOps() int { return e.size.opsPerSecond * e.cfg.Seconds }

// Run executes one workload and returns its result. Whatever happens it
// leaves nothing behind: Run fails if a goroutine, a listener or a
// scratch directory it created outlives it.
func Run(cfg Config) (Result, error) {
	if cfg.Scale == "" {
		cfg.Scale = ScaleFull
	}
	if cfg.Seconds < 1 {
		return Result{}, fmt.Errorf("--seconds must be at least 1, got %d", cfg.Seconds)
	}
	size, err := sizingFor(cfg.Workload, cfg.Scale)
	if err != nil {
		return Result{}, err
	}
	e := &env{cfg: cfg, size: size}
	baseline := runtime.NumGoroutine()

	var out outcome
	switch cfg.Workload {
	case SkipClustered, ScanUniform:
		out, err = runInProcess(e)
	case ServedZipf:
		out, err = runServed(e)
	case IngestMixed:
		out, err = runIngest(e)
	}
	if err != nil {
		return Result{}, err
	}
	e.phase("leak check")
	if err := waitGoroutines(baseline); err != nil {
		return Result{}, err
	}

	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
	}
	res := Result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]Metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = Metric{Value: out.metrics[d.name], Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return Result{}, fmt.Errorf("workload %s produced undeclared metric %q", cfg.Workload, name)
		}
	}
	if out.tracer != nil {
		path, err := out.tracer.write(cfg.OutDir, cfg, res.Metrics, out.counts)
		if err != nil {
			return Result{}, err
		}
		e.logf("trace: %d spans -> %s", len(out.tracer.spans), path)
	}
	return res, nil
}

// waitGoroutines gives goroutines that were told to stop a moment to
// exit, then fails if more are alive than before the workload started.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d alive, %d before the workload\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// medianSetup runs setup setupRuns times, tearing down every instance but
// the last, and returns the last instance with the median set-up time.
// A traced run sets up once: it does not report setup_s.
func medianSetup[T io.Closer](e *env, setup func() (T, error)) (T, float64, error) {
	runs := setupRuns
	if e.cfg.Trace {
		runs = 1
	}
	var (
		last  T
		times []float64
	)
	for i := 0; i < runs; i++ {
		e.phase(fmt.Sprintf("setup %d/%d", i+1, runs))
		runtime.GC() // the previous instance's heap is not this set-up's cost
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < runs-1 {
			if err := inst.Close(); err != nil {
				return last, 0, fmt.Errorf("teardown after setup %d: %w", i+1, err)
			}
			continue
		}
		last = inst
	}
	s := medianOf(times)
	e.logf("setup_s: median %.4f of %d set-ups (min %.4f max %.4f)", s.median, runs, s.min, s.max)
	return last, s.median, nil
}

// tableName is the one table every workload uses, with the schema of
// adskip-gen: v carries the distribution, seq is the row number, noise is
// uniform and never skippable.
const tableName = "data"

// loadTable creates the table and bulk-loads v into it in 64Ki-row
// batches (one reused buffer, so loading costs the program's work, not
// the benchmark's allocations). With lead > 0 the first batch is lead rows
// sampled at a fixed stride and the rest follow in order; seq is always
// the row's position in v.
func loadTable(db *adskip.DB, v []int64, seed int64, lead int) (*adskip.Table, error) {
	tbl, err := db.CreateTable(tableName,
		adskip.Col("v", storage.Int64), adskip.Col("seq", storage.Int64), adskip.Col("noise", storage.Float64))
	if err != nil {
		return nil, err
	}
	const batchRows = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	cells := make([]adskip.Value, 3*batchRows)
	batch := make([][]adskip.Value, batchRows)
	for i := range batch {
		batch[i] = cells[3*i : 3*i+3]
	}
	k := 0
	flush := func() error {
		err := tbl.AppendBatch(batch[:k])
		k = 0
		return err
	}
	put := func(i int) error {
		batch[k][0] = storage.IntValue(v[i])
		batch[k][1] = storage.IntValue(int64(i))
		batch[k][2] = storage.FloatValue(rng.Float64() * 1000)
		k++
		if k == batchRows {
			return flush()
		}
		return nil
	}
	stride := 0
	if lead > 0 && lead < len(v) {
		stride = len(v) / lead
		for i := 0; i < len(v); i += stride {
			if err := put(i); err != nil {
				return nil, err
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	for i := range v {
		if stride > 0 && i%stride == 0 {
			continue
		}
		if err := put(i); err != nil {
			return nil, err
		}
	}
	if k > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// heapMB drops the benchmark's own large allocations (the caller nils
// them first), collects, and reports the live heap: the program's
// columns, metadata, rings and tables.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers released in the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// scratchDir creates a fresh directory under the run's scratch parent.
func scratchDir(e *env, tag string) (string, error) {
	if err := os.MkdirAll(e.cfg.Scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.cfg.Scratch, "adskip-bench-"+tag+"-")
}

// removeScratch deletes a scratch directory and fails if it survives.
func removeScratch(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("scratch directory %s still exists", dir)
	}
	return nil
}
