package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// bigManager builds a Manager whose shards are large enough that a scan
// crosses several cooperative checkpoints (the engine checks its context
// at least once per 65536 rows).
func bigManager(t *testing.T, shards, rowsPerShard int) *Manager {
	t.Helper()
	return bigManagerLimited(t, shards, rowsPerShard, engine.Limits{})
}

// bigManagerLimited is bigManager with per-query limits on every shard
// engine.
func bigManagerLimited(t *testing.T, shards, rowsPerShard int, limits engine.Limits) *Manager {
	t.Helper()
	m, err := New("big", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "v", Type: storage.Float64},
	}, Options{Shards: shards, Key: "id",
		Engine: engine.Options{Policy: engine.PolicyNone, Limits: limits}})
	if err != nil {
		t.Fatal(err)
	}
	n := shards * rowsPerShard
	batch := make([][]storage.Value, 0, 65536)
	for i := 0; i < n; i++ {
		batch = append(batch, []storage.Value{
			storage.IntValue(int64(i)),
			storage.FloatValue(float64(i % 997)),
		})
		if len(batch) == cap(batch) || i == n-1 {
			if err := m.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return m
}

// fullScanQuery forces every surviving shard into a full scan (predicate
// on the non-key column, no skipping metadata under PolicyNone).
func fullScanQuery() engine.Query {
	return engine.Query{Where: expr.And(
		expr.MustPred("v", expr.LT, storage.FloatValue(500)))}
}

// TestScatterCancellation covers satellite behavior: a context cancelled
// mid-gather stops all shard workers, leaks no goroutines, and the
// partial-scan counters report exactly the work that completed.
func TestScatterCancellation(t *testing.T) {
	m := bigManager(t, 4, 200_000)
	before := runtime.NumGoroutine()

	// Pre-cancelled context: rejected before any shard work, zero scans.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.QueryContext(pre, fullScanQuery()); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("pre-cancelled: err = %v, want ErrCanceled", err)
	}
	if n := m.mScanned.Load(); n != 0 {
		t.Errorf("pre-cancelled: %d shard scans recorded, want 0", n)
	}

	// Cancel mid-gather, repeatedly: the workers must stop at their next
	// checkpoint and the counter must only ever count completed scans.
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(50+100*i) * time.Microsecond)
			cancel()
		}()
		_, err := m.QueryContext(ctx, fullScanQuery())
		cancel()
		if err != nil && !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("run %d: err = %v, want nil or ErrCanceled", i, err)
		}
	}

	// Counter invariant: completed-scan count never exceeds what the
	// queries could have run (queries × shards), and a successful control
	// query afterwards adds exactly Shards.
	base := m.mScanned.Load()
	if max := int64(8 * m.Shards()); base > max {
		t.Errorf("scanned counter %d exceeds %d possible shard scans", base, max)
	}
	if _, err := m.Query(fullScanQuery()); err != nil {
		t.Fatal(err)
	}
	if got := m.mScanned.Load() - base; got != int64(m.Shards()) {
		t.Errorf("control query recorded %d shard scans, want %d", got, m.Shards())
	}

	// No leaked workers: goroutines return to (near) baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d after, %d before — scatter workers leaked", after, before)
	}
}

// TestScatterErrorCancelsSiblings checks the other cancellation
// direction: one shard failing (over budget) stops the rest, and the
// reported error is the real failure, not the cancellations it caused.
func TestScatterErrorCancelsSiblings(t *testing.T) {
	m, err := New("lim", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "v", Type: storage.Float64},
	}, Options{Shards: 4, Key: "id",
		Engine: engine.Options{
			Policy: engine.PolicyNone,
			// Low row budget: every full-scanning shard blows it.
			Limits: engine.Limits{MaxRowsScanned: 1000},
		}})
	if err != nil {
		t.Fatal(err)
	}
	// Budget enforcement happens at cooperative checkpoints (one per
	// 65536 rows scanned), so each shard must hold more than a checkpoint
	// interval for the limit to trip mid-scan.
	const total = 4 * 100_000
	rows := make([][]storage.Value, 0, 65536)
	for i := 0; i < total; i++ {
		rows = append(rows, []storage.Value{
			storage.IntValue(int64(i)), storage.FloatValue(float64(i))})
		if len(rows) == cap(rows) || i == total-1 {
			if err := m.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	_, qerr := m.Query(fullScanQuery())
	if !errors.Is(qerr, engine.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", qerr)
	}
}

// TestConcurrentAppendQuery races appends against queries across shards
// (run with -race). Row counts must be exact and every query result
// internally consistent.
func TestConcurrentAppendQuery(t *testing.T) {
	m, err := New("conc", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "v", Type: storage.Float64},
	}, Options{Shards: 4, Key: "id",
		Engine: engine.Options{Policy: engine.PolicyAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([][]storage.Value, 0, 1000)
	for i := 0; i < 1000; i++ {
		seed = append(seed, []storage.Value{
			storage.IntValue(int64(i)), storage.FloatValue(float64(i))})
	}
	if err := m.AppendRows(seed); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableSkipping("id"); err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 4
		batchesEach   = 25
		rowsPerBatch  = 40
		readers       = 4
		queriesEach   = 50
		expectedTotal = 1000 + writers*batchesEach*rowsPerBatch
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesEach; b++ {
				batch := make([][]storage.Value, 0, rowsPerBatch)
				for r := 0; r < rowsPerBatch; r++ {
					id := int64(1000 + w*batchesEach*rowsPerBatch + b*rowsPerBatch + r)
					batch = append(batch, []storage.Value{
						storage.IntValue(id), storage.FloatValue(float64(id))})
				}
				if err := m.AppendRows(batch); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				res, err := m.Query(engine.Query{Where: expr.And(
					expr.MustPred("id", expr.Between, storage.IntValue(0), storage.IntValue(1<<40)))})
				if err != nil {
					errCh <- err
					return
				}
				if res.Count < 1000 || res.Count > expectedTotal {
					errCh <- errors.New("count outside [seed, total] window")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if m.NumRows() != expectedTotal {
		t.Fatalf("NumRows = %d, want %d", m.NumRows(), expectedTotal)
	}
	res, err := m.Query(engine.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != expectedTotal {
		t.Fatalf("final count = %d, want %d", res.Count, expectedTotal)
	}
}

// stackCtx records the stack of every goroutine that looks a value up in
// it. The shard engines do (trace, session and template ids), including
// through the contexts the scatter workers derive from it, so it shows
// which goroutine ran the engine.
type stackCtx struct {
	context.Context
	mu     sync.Mutex
	stacks []string
}

func (c *stackCtx) Value(key any) any {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	c.mu.Lock()
	c.stacks = append(c.stacks, string(buf))
	c.mu.Unlock()
	return c.Context.Value(key)
}

// engineStacks returns the recorded stacks that passed through a shard
// engine's query.
func (c *stackCtx) engineStacks() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, s := range c.stacks {
		if strings.Contains(s, "engine.(*Engine).QueryPartial") {
			out = append(out, s)
		}
	}
	return out
}

// oneShardQuery is a full scan of the one shard holding ids [lo, hi].
func oneShardQuery(lo, hi int64) engine.Query {
	return engine.Query{Where: expr.And(
		expr.MustPred("id", expr.Between, storage.IntValue(lo), storage.IntValue(hi)),
		expr.MustPred("v", expr.LT, storage.FloatValue(500)))}
}

// TestScatterSingleTargetRunsInline: when key bounds leave one shard, its
// engine runs on the caller's goroutine under the caller's context — no
// worker, nothing to wait for — while two or more targets still get a
// worker each. The caller's cancellation and a shard's own failure surface
// with the same kinds either way, and the scanned counter counts the one
// completed scan once.
func TestScatterSingleTargetRunsInline(t *testing.T) {
	// Range bounds come from the first 65536-row batch: shards 1-3 hold
	// 16384 ids each, shard 4 everything from 49152 up.
	m := bigManager(t, 4, 100_000)
	const self = "shard.TestScatterSingleTargetRunsInline"

	ctx := &stackCtx{Context: context.Background()}
	base := m.mScanned.Load()
	res, err := m.QueryContext(ctx, oneShardQuery(10, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsScanned != 1 || res.Stats.ShardsPruned != 3 {
		t.Fatalf("scanned %d pruned %d shards, want 1 and 3", res.Stats.ShardsScanned, res.Stats.ShardsPruned)
	}
	if got := m.mScanned.Load() - base; got != 1 {
		t.Errorf("scanned counter moved by %d, want 1", got)
	}
	stacks := ctx.engineStacks()
	if len(stacks) == 0 {
		t.Fatal("the engine never consulted the caller's context")
	}
	for _, s := range stacks {
		if !strings.Contains(s, self) || !strings.Contains(s, "shard.(*Manager).scatter") {
			t.Fatalf("lone shard ran off the caller's goroutine:\n%s", s)
		}
	}

	// Contrast: two surviving shards run on workers.
	ctx = &stackCtx{Context: context.Background()}
	if res, err = m.QueryContext(ctx, oneShardQuery(10, 20_000)); err != nil || res.Stats.ShardsScanned != 2 {
		t.Fatalf("two-shard query: %+v, %v", res, err)
	}
	for _, s := range ctx.engineStacks() {
		if strings.Contains(s, self) {
			t.Fatalf("a sibling shard ran on the caller's goroutine:\n%s", s)
		}
	}

	// No goroutine per query: the count is steady across 1000 of them.
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		if _, err := m.Query(oneShardQuery(10, 20)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("query %d: %d goroutines, %d before", i, n, before)
		}
	}

	// The caller's cancellation reaches the inline scan mid-flight.
	base = m.mScanned.Load()
	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	cctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	_, err = m.QueryContext(cctx, oneShardQuery(300_000, 399_999))
	cancel()
	restore()
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("cancelled lone-shard query: err = %v, want ErrCanceled", err)
	}
	if got := m.mScanned.Load() - base; got != 0 {
		t.Errorf("cancelled scan counted %d times", got)
	}
}

// TestScatterSingleTargetError: a lone shard's own failure comes back as
// it is (same kind as through the workers), counted as no scan.
func TestScatterSingleTargetError(t *testing.T) {
	m := bigManagerLimited(t, 2, 100_000, engine.Limits{MaxRowsScanned: 1000})
	// Shard 2 holds ids from 32768 up: more than one checkpoint interval, so
	// its scan trips the budget.
	if _, err := m.Query(oneShardQuery(100_000, 100_010)); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if n := m.mScanned.Load(); n != 0 {
		t.Errorf("failed scan counted %d times", n)
	}
}
