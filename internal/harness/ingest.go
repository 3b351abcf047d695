package harness

import (
	"fmt"
	"os"
	"sync"
	"time"

	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
	"adskip/internal/workload"
)

// The ingest benchmark: the same concurrent batch-append workload run
// against the volatile in-memory path, the durable WAL path (group
// commit, real fsyncs), and the WAL-without-fsync path, so the cost of
// durability is one number.
//
// The durable path is measured two ways, because they answer different
// questions. Closed-loop ("acked"): each writer waits for its batch to
// be durable before issuing the next — per-batch commit latency,
// dominated by the group-commit window, is the ceiling. Pipelined
// ("sustained"): writers stream batches through AppendRowsAsync and wait
// only at the end, keeping the commit pipeline full — one fsync absorbs
// everything that arrived while the previous one was in flight, which is
// the amortization group commit exists to provide. DurableSlowdown compares
// the sustained legs; since the columnar append path doubled the volatile
// leg it measures the WAL's own cost (record encode, commit pipeline)
// against an apply that is a few nanoseconds a row (DESIGN §11).

// IngestConfig sizes one ingest measurement.
type IngestConfig struct {
	Dir     string        // scratch directory for WAL legs ("" = temp dir)
	Rows    int           // total rows appended per leg (default 1<<16)
	Batch   int           // rows per AppendRows call (default 64)
	Writers int           // concurrent appenders (default 4)
	Window  time.Duration // group-commit window (0 = WAL default)
	Seed    int64
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.Rows <= 0 {
		// Big enough that steady-state pipelining, not startup (first
		// flush, file creation), dominates the sustained measurement.
		c.Rows = 1 << 18
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Writers <= 0 {
		c.Writers = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	// Whole batches only, so throughput divides rows actually appended.
	c.Rows = (c.Rows / c.Batch) * c.Batch
	if c.Rows == 0 {
		c.Rows = c.Batch
	}
	return c
}

// IngestStats is the machine-comparable result of RunIngest.
type IngestStats struct {
	Rows    int `json:"rows"`
	Batch   int `json:"batch"`
	Writers int `json:"writers"`
	// Sustained (pipelined) ingest throughput per leg.
	MemRowsPerSec       float64 `json:"mem_rows_per_sec"`
	WALRowsPerSec       float64 `json:"wal_rows_per_sec"`
	WALNoSyncRowsPerSec float64 `json:"wal_nosync_rows_per_sec"`
	// WALAckedRowsPerSec is the closed-loop durable number: every batch
	// individually waited before the next. It is group-window-bound by
	// design (latency floor ≈ the window), so it is reported for context,
	// not gated on.
	WALAckedRowsPerSec float64 `json:"wal_acked_rows_per_sec"`
	// Syncs is how many fsync batches the sustained durable leg took;
	// RowsPerSync is the amortization (without group commit it would be
	// at most Batch).
	Syncs       int64   `json:"syncs"`
	RowsPerSync float64 `json:"rows_per_sync"`
	// DurableSlowdown is MemRowsPerSec / WALRowsPerSec on the sustained
	// legs: 1.0 = free durability.
	DurableSlowdown float64 `json:"durable_slowdown"`
}

func (s IngestStats) String() string {
	return fmt.Sprintf(
		"ingest %d rows, batch %d, %d writers: mem %.2gM rows/s; wal sustained %.2gM rows/s (%.2fx slowdown, %d syncs, %.0f rows/sync), acked %.3gM rows/s; wal-nosync %.2gM rows/s",
		s.Rows, s.Batch, s.Writers, s.MemRowsPerSec/1e6, s.WALRowsPerSec/1e6,
		s.DurableSlowdown, s.Syncs, s.RowsPerSync, s.WALAckedRowsPerSec/1e6,
		s.WALNoSyncRowsPerSec/1e6)
}

// RunIngest measures the ingest legs and returns their stats.
func RunIngest(cfg IngestConfig) (IngestStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "adskip-ingest-")
		if err != nil {
			return IngestStats{}, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	st := IngestStats{Rows: cfg.Rows, Batch: cfg.Batch, Writers: cfg.Writers}

	// Volatile leg (pipelined and closed-loop are identical with no WAL).
	memSec, err := ingestLeg(cfg, nil, false)
	if err != nil {
		return st, fmt.Errorf("mem leg: %w", err)
	}
	st.MemRowsPerSec = float64(cfg.Rows) / memSec

	// Durable sustained leg: group commit with real fsyncs, full pipeline.
	reg := obs.NewRegistry()
	walSec, err := ingestLegWAL(cfg, wal.Options{
		Dir: cfg.Dir + "/durable", GroupWindow: cfg.Window, Metrics: reg,
	}, false)
	if err != nil {
		return st, fmt.Errorf("wal leg: %w", err)
	}
	st.WALRowsPerSec = float64(cfg.Rows) / walSec
	st.Syncs = reg.Counter("adskip_wal_syncs_total", "").Load()
	if st.Syncs > 0 {
		st.RowsPerSync = float64(cfg.Rows) / float64(st.Syncs)
	}
	if st.WALRowsPerSec > 0 {
		st.DurableSlowdown = st.MemRowsPerSec / st.WALRowsPerSec
	}

	// Durable closed-loop leg: every batch waited individually.
	ackedSec, err := ingestLegWAL(cfg, wal.Options{
		Dir: cfg.Dir + "/acked", GroupWindow: cfg.Window,
	}, true)
	if err != nil {
		return st, fmt.Errorf("wal acked leg: %w", err)
	}
	st.WALAckedRowsPerSec = float64(cfg.Rows) / ackedSec

	// No-sync leg: same logging and group-commit machinery, fsync skipped —
	// isolates how much of the slowdown is the disk versus the framing.
	noSyncSec, err := ingestLegWAL(cfg, wal.Options{
		Dir: cfg.Dir + "/nosync", GroupWindow: cfg.Window, NoSync: true,
	}, false)
	if err != nil {
		return st, fmt.Errorf("wal-nosync leg: %w", err)
	}
	st.WALNoSyncRowsPerSec = float64(cfg.Rows) / noSyncSec
	return st, nil
}

// ingestLegWAL opens a fresh log, arms it, and times the workload.
func ingestLegWAL(cfg IngestConfig, opts wal.Options, acked bool) (float64, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return 0, err
	}
	l, _, err := wal.Open(opts, nil)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return ingestLeg(cfg, l, acked)
}

// ingestLeg appends cfg.Rows rows from cfg.Writers concurrent goroutines
// in cfg.Batch-row batches and returns the elapsed seconds. With acked
// each append is waited before the next; otherwise writers stream
// batches and durability is settled once at the end (every row is still
// durable before the clock stops).
func ingestLeg(cfg IngestConfig, l *wal.Log, acked bool) (float64, error) {
	tbl := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	e := engine.New(tbl, engine.Options{Policy: engine.PolicyAdaptive})
	if err := e.EnableSkipping("v"); err != nil {
		return 0, err
	}
	if l != nil {
		e.SetWAL(l)
	}
	batches := cfg.Rows / cfg.Batch
	vals := workload.Generate(workload.DataSpec{
		N: cfg.Batch, Dist: workload.Uniform, Domain: int64(cfg.Rows), Seed: cfg.Seed,
	})
	batch := make([][]storage.Value, cfg.Batch)
	for i := range batch {
		batch[i] = []storage.Value{storage.IntValue(vals[i])}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Writers)
	start := time.Now()
	for w := 0; w < cfg.Writers; w++ {
		n := batches / cfg.Writers
		if w < batches%cfg.Writers {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var last wal.Commit
			for i := 0; i < n; i++ {
				c, err := e.AppendRowsAsync(batch)
				if err != nil {
					errCh <- err
					return
				}
				if acked {
					if err := c.Wait(); err != nil {
						errCh <- err
						return
					}
				}
				last = c
			}
			// Waiting the writer's final commit covers all its earlier ones:
			// a batch is durable only with everything enqueued before it.
			if err := last.Wait(); err != nil {
				errCh <- err
			}
		}(n)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return elapsed, nil
}
