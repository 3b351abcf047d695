package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"adskip"
	"adskip/internal/engine"
	"adskip/internal/storage"
	"adskip/internal/table"
	"adskip/internal/wal"
	"adskip/internal/workload"
)

// ingest-mixed: writes beside reads on the same layers. The base table is
// semi-sorted on v and ordered by seq, skipping is on for both, and the
// WAL is on with the default flush policy: fsync on, 2 ms group window.
// One driver repeats a cycle: one AppendRowsAsync batch of 256
// near-ordered rows — after waiting for the commit of the batch 8 cycles
// back, so every row is durable within 8 cycles — then 8 COUNT(*) ranges,
// 4 inside the most recent 5% of seq (the append tail and freshly folded
// zones) and 4 uniform on v. Ranges are as wide as 1% of the base table,
// so a query matches about the same number of rows however far the table
// has grown. The skipper is exercised through Extend/FoldTail here, so a
// probe gain bought with dearer maintenance, or a WAL change that stalls
// readers, shows on this workload and on no other.

// ingest is one set-up instance.
type ingest struct {
	db      *adskip.DB
	tbl     *adskip.Table
	dir     string  // WAL directory, removed on Close
	v       []int64 // base column
	quiesce int
}

func (g *ingest) Close() error {
	return errors.Join(g.db.Close(), removeScratch(g.dir))
}

// openIngestDB builds the durable DB over the base column and arms its
// WAL: load, build both skippers, Recover.
func openIngestDB(dir string, v []int64, seed int64) (*adskip.DB, *adskip.Table, adskip.RecoveryStats, error) {
	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive, Durability: adskip.Durability{Dir: dir}})
	tbl, err := loadTable(db, v, seed+1, 0)
	if err == nil {
		err = tbl.EnableSkipping("v", "seq")
	}
	var st adskip.RecoveryStats
	if err == nil {
		st, err = db.Recover()
	}
	if err != nil {
		db.Close()
		return nil, nil, st, err
	}
	return db, tbl, st, nil
}

func setupIngest(e *env) (*ingest, error) {
	rows := e.size.rows
	v := workload.Generate(workload.DataSpec{N: rows, Dist: workload.SemiSorted, Domain: int64(rows), Seed: e.cfg.Seed})
	dir, err := scratchDir(e, "wal")
	if err != nil {
		return nil, err
	}
	db, tbl, _, err := openIngestDB(dir, v, e.cfg.Seed)
	if err != nil {
		return nil, errors.Join(err, removeScratch(dir))
	}
	g := &ingest{db: db, tbl: tbl, dir: dir, v: v}
	// Warm up with the read half of the cycle on the base table.
	cyc := newCycler(e.cfg.Seed*17+3, rows)
	g.quiesce, err = warmUp(e, func(i int) error {
		if i%cycleQueries == 0 {
			cyc.nextQueries()
		}
		_, err := tbl.Query(cyc.queries[i%cycleQueries].q)
		return err
	}, func() int { return g.splits() })
	if err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

func (g *ingest) state() adaptiveState {
	var st adaptiveState
	st.add(g.tbl.Engine().Skipper("v"))
	st.add(g.tbl.Engine().Skipper("seq"))
	return st
}

func (g *ingest) splits() int { return g.state().splits }

const cycleQueries = ingestTailQ + ingestUniformQ

// cycler generates the deterministic operations of the cycles: the batch
// to append and the eight queries that follow it, with their expected
// answers. Its buffers are allocated once and rewritten in place.
type cycler struct {
	rng     *rand.Rand
	base    int   // base table rows: fixes the range width
	rows    int64 // rows in the table after the batches generated so far
	width   int64
	batch   [][]storage.Value
	queries [cycleQueries]countQuery
	oracle  *fenwick // counts of v; nil while only warming up
}

func newCycler(seed int64, baseRows int) *cycler {
	c := &cycler{rng: rand.New(rand.NewSource(seed)), base: baseRows, rows: int64(baseRows)}
	c.width = max(1, int64(selectivity*float64(baseRows)))
	cells := make([]storage.Value, 3*ingestBatch)
	c.batch = make([][]storage.Value, ingestBatch)
	for i := range c.batch {
		c.batch[i] = cells[3*i : 3*i+3]
	}
	for i := range c.queries {
		col := "seq"
		if i >= ingestTailQ {
			col = "v"
		}
		c.queries[i] = newCountQuery(col, workload.Range{})
	}
	return c
}

// withOracle builds the Fenwick tree over the base column, sized for
// maxAppend appended rows.
func (c *cycler) withOracle(v []int64, maxAppend int) *cycler {
	c.oracle = newFenwickFrom(c.base+maxAppend+ingestJitter+1, v)
	return c
}

// nextBatch fills the batch buffer with the next ingestBatch rows —
// v within ingestJitter of the row number, seq the row number — and
// updates the oracle.
func (c *cycler) nextBatch() [][]storage.Value {
	for j := range c.batch {
		g := c.rows + int64(j)
		v := g + int64(c.rng.Intn(2*ingestJitter+1)) - ingestJitter
		c.batch[j][0] = storage.IntValue(v)
		c.batch[j][1] = storage.IntValue(g)
		c.batch[j][2] = storage.FloatValue(c.rng.Float64() * 1000)
		if c.oracle != nil {
			c.oracle.add(v)
		}
	}
	c.rows += ingestBatch
	return c.batch
}

// nextQueries rewrites the eight queries, and their expected answers, for
// the current table size.
func (c *cycler) nextQueries() {
	tail := max(c.width, int64(ingestTailFrac*float64(c.rows)))
	for i := range c.queries {
		q := &c.queries[i]
		var lo int64
		if i < ingestTailQ {
			lo = c.rows - tail + c.rng.Int63n(tail-c.width+1)
		} else {
			lo = c.rng.Int63n(c.rows - c.width + 1)
		}
		hi := lo + c.width - 1
		q.r = workload.Range{Lo: lo, Hi: hi}
		args := q.q.Where.Preds[0].Args
		args[0], args[1] = storage.IntValue(lo), storage.IntValue(hi)
		switch {
		case i < ingestTailQ:
			q.want = int(c.width) // seq is dense: one row per value
		case c.oracle != nil:
			q.want = c.oracle.count(lo, hi)
		}
	}
}

// ingestTimes are the append-side samples of one window.
type ingestTimes struct {
	call, wait *recorder     // AppendRowsAsync call; wait for the commit 8 back
	drain      time.Duration // wait for the commits in flight at the end of the window
	rows       int64
}

// appendSeconds is the time spent inside append calls and commit waits.
func (t *ingestTimes) appendSeconds() float64 {
	return float64(t.call.sum()+t.wait.sum())/1e9 + t.drain.Seconds()
}

// batchLatencies returns per-batch call+wait latencies.
func (t *ingestTimes) batchLatencies() []int64 {
	out := make([]int64, t.call.len())
	for i := range out {
		out[i] = t.call.ns[i] + t.wait.ns[i]
	}
	return out
}

// ingestHooks lets the traced run see every operation.
type ingestHooks struct {
	appended func(cycle int, batch [][]storage.Value, t0, t1, t2 time.Time)
	queried  func(cycle, k int, q *countQuery, res *adskip.Result, t0, t1 time.Time)
}

// cycleWindow runs n cycles, closed loop, checking every answer. An append
// that fails leaves the table and the oracle out of step, so it ends the
// window with an error rather than a failed operation.
func (g *ingest) cycleWindow(c *cycler, n int, hooks *ingestHooks) (w *window, at ingestTimes, failed int64, err error) {
	eng := g.tbl.Engine()
	w = newWindow(n*cycleQueries, ingestCycleOps)
	at = ingestTimes{call: newRecorder(n), wait: newRecorder(n)}
	var pipeline [ingestPipeline]wal.Commit
	w.run(n, func(i int) {
		if err != nil {
			return
		}
		batch := c.nextBatch()
		ta0 := time.Now()
		commit, aerr := eng.AppendRowsAsync(batch)
		ta1 := time.Now()
		if aerr == nil && i >= ingestPipeline {
			aerr = pipeline[i%ingestPipeline].Wait()
		}
		ta2 := time.Now()
		if aerr != nil {
			err = fmt.Errorf("append batch %d: %w", i, aerr)
			return
		}
		pipeline[i%ingestPipeline] = commit
		at.call.add(ta1.Sub(ta0).Nanoseconds())
		at.wait.add(ta2.Sub(ta1).Nanoseconds())
		at.rows += ingestBatch
		if hooks != nil {
			hooks.appended(i, batch, ta0, ta1, ta2)
		}
		c.nextQueries()
		for k := range c.queries {
			q := &c.queries[k]
			t0 := time.Now()
			res, qerr := g.tbl.Query(q.q)
			t1 := time.Now()
			w.add(t1.Sub(t0))
			if qerr != nil || res.Count != q.want {
				failed++
				continue
			}
			if hooks != nil {
				hooks.queried(i, k, q, res, t0, t1)
			}
		}
		if i == n-1 {
			// The commits still in flight are awaited inside the last slice:
			// every appended row is durable when the window's clock stops.
			td := time.Now()
			for k := range pipeline {
				if werr := pipeline[k].Wait(); werr != nil && err == nil {
					err = fmt.Errorf("drain commit: %w", werr)
				}
			}
			at.drain = time.Since(td)
		}
	})
	return w, at, failed, err
}

func runIngest(e *env) (outcome, error) {
	g, setupS, err := medianSetup(e, func() (*ingest, error) { return setupIngest(e) })
	if err != nil {
		return outcome{}, err
	}
	defer g.Close() // error paths; the success path closes and checks below

	var out outcome
	if e.cfg.Trace {
		out, err = g.traced(e)
	} else {
		out, err = g.timed(e, setupS)
	}
	if err != nil {
		return outcome{}, err
	}
	if err := g.Close(); err != nil {
		return outcome{}, fmt.Errorf("teardown: %w", err)
	}
	return out, nil
}

// timed runs the untraced window and returns the end-to-end metrics.
func (g *ingest) timed(e *env, setupS float64) (outcome, error) {
	e.phase("oracle")
	cycles := e.windowOps() / ingestCycleOps
	c := newCycler(e.cfg.Seed*17+5, e.size.rows).withOracle(g.v, cycles*ingestBatch)
	g.v = nil
	e.phase("timed window")
	w, at, failed, err := g.cycleWindow(c, cycles, nil)
	if err != nil {
		return outcome{}, err
	}
	windowMetrics(e, []*window{w}) // logged; reported by the traced run
	e.logf("append: %d rows durable, %.0f rows/s inside append calls and commit waits, batch p95 %.1fus (%d batches)",
		at.rows, float64(at.rows)/at.appendSeconds(), percentileOf(at.batchLatencies(), 95)/1e3, at.call.len())
	if got, want := g.tbl.NumRows(), e.size.rows+cycles*ingestBatch; got != want {
		e.logf("row count after window: got %d, want %d", got, want)
		failed++
	}
	c = nil
	m := map[string]float64{"setup_s": setupS, "heap_mb": heapMB()}
	runtime.KeepAlive(g)
	return outcome{attempted: int64(cycles*ingestCycleOps) + 1, failed: failed, metrics: m}, nil
}

// Rungs of the ingest ladder.
const (
	rungAppendCall     = "Engine.AppendRowsAsync"
	rungCommitWait     = "wal.Commit.Wait"
	rungAppendVolatile = "Engine.AppendRows(volatile)"
)

func (g *ingest) traced(e *env) (outcome, error) {
	cycles := e.size.traceOps / ingestCycleOps
	total := 2 * cycles * ingestBatch
	c := newCycler(e.cfg.Seed*17+5, e.size.rows).withOracle(g.v, total)

	e.phase("untraced prefix")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, _, failed, err := g.cycleWindow(c, cycles, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		return outcome{}, err
	}

	e.phase("traced prefix")
	ops := cycles * ingestCycleOps
	ladderOps := ops/ladderEvery + 1
	tr := newTracer(ops + cycles + 8*ladderOps)
	r := newRungs(tr, ladderOps)
	eng := g.tbl.Engine()
	ladder, err := newEngineLadder(eng, r, "v", "seq")
	if err != nil {
		return outcome{}, err
	}
	// The volatile twin is an empty table of the same schema with the same
	// skippers and no WAL: replaying a batch on it is the append without
	// the log.
	volatile := engine.New(table.MustNew(tableName, eng.Table().Schema()), engine.Options{Policy: engine.PolicyAdaptive})
	if err := volatile.EnableSkipping("v", "seq"); err != nil {
		return outcome{}, err
	}
	reg := g.db.Metrics()
	syncs := reg.Counter("adskip_wal_syncs_total", "")
	walRows := reg.Counter("adskip_wal_rows_total", "")
	walBytes := reg.Counter("adskip_wal_bytes_total", "")
	syncs0, rows0, bytes0 := syncs.Load(), walRows.Load(), walBytes.Load()

	var wrong, checks int64
	var ladderErr error
	hooks := &ingestHooks{
		appended: func(cycle int, batch [][]storage.Value, t0, t1, t2 time.Time) {
			op := int32(cycle * ingestCycleOps)
			root := tr.record(rungAppendCall, t0, t1, -1, op, false)
			tr.record(rungCommitWait, t1, t2, root, op, false)
			if op%ladderEvery != 0 {
				return
			}
			v0 := time.Now()
			err := volatile.AppendRows(batch)
			v1 := time.Now()
			if err != nil && ladderErr == nil {
				ladderErr = fmt.Errorf("volatile append: %w", err)
			}
			r.timed(rungAppendVolatile, v0, v1, root, op)
		},
		queried: func(cycle, k int, q *countQuery, res *adskip.Result, t0, t1 time.Time) {
			op := int32(cycle*ingestCycleOps + 1 + k)
			root := tr.record("Table.Query", t0, t1, -1, op, false)
			if op%ladderEvery != 0 {
				return
			}
			r.sample(rungQuery, t1.Sub(t0).Nanoseconds())
			r.sample(rungFeedback, res.Trace.Feedback.Nanoseconds())
			checks += ladderChecks
			wrong += int64(ladder.replay(q.q, q.want, root, op))
		},
	}
	traced, at, failed2, err := g.cycleWindow(c, cycles, hooks)
	if err == nil {
		err = ladderErr
	}
	if err != nil {
		return outcome{}, err
	}
	dSyncs, dRows, dBytes := float64(syncs.Load()-syncs0), float64(walRows.Load()-rows0), float64(walBytes.Load()-bytes0)
	st := g.state()

	e.phase("recovery")
	wantRows := e.size.rows + total
	if got := g.tbl.NumRows(); got != wantRows {
		wrong++
	}
	checks++
	if err := g.db.Close(); err != nil {
		return outcome{}, fmt.Errorf("close before recovery: %w", err)
	}
	db2, tbl2, rst, err := openIngestDB(g.dir, g.v, e.cfg.Seed)
	if err != nil {
		return outcome{}, fmt.Errorf("reopen and recover: %w", err)
	}
	g.db, g.tbl, g.v = db2, tbl2, nil // Close tears down the recovered DB
	checks++
	if rst.Rows != int64(total) || tbl2.NumRows() != wantRows {
		e.logf("recovery: replayed %d rows into %d, want %d into %d", rst.Rows, tbl2.NumRows(), total, wantRows)
		wrong++
	}

	m := windowMetrics(e, []*window{plain})
	r.engineLayerMetrics(m)
	st.metrics(m)
	m["adaptive.queries_to_quiesce"] = float64(g.quiesce)
	nA := float64(cycles * ingestCycleOps)
	m["engine.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / nA
	m["engine.bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / nA
	volatileNS := r.p50(rungAppendVolatile)
	durableNS := percentileOf(at.batchLatencies(), 50)
	m["engine.append_ns_per_row"] = volatileNS / ingestBatch
	m["wal.overhead_ns_per_row"] = (durableNS - volatileNS) / ingestBatch
	m["wal.append_us"] = at.call.percentile(50) / 1e3
	m["wal.commit_wait_us"] = at.wait.percentile(50) / 1e3
	m["wal.syncs"] = dSyncs
	if dSyncs > 0 {
		m["wal.rows_per_sync"] = dRows / dSyncs
	}
	if dRows > 0 {
		m["wal.bytes_per_row"] = dBytes / dRows
	}
	if rst.Elapsed > 0 {
		m["wal.recover_rows_per_s"] = float64(rst.Rows) / rst.Elapsed.Seconds()
	}
	m["ingest.append_rows_per_s"] = float64(at.rows) / at.appendSeconds()
	m["ingest.append_p95_us"] = percentileOf(at.batchLatencies(), 95) / 1e3
	m["trace.overhead_frac"] = traced.lat.percentile(50)/plain.lat.percentile(50) - 1

	counts := r.exactCounts()
	st.counts(counts)
	counts["wal.rows"] = dRows
	counts["wal.bytes"] = dBytes
	return outcome{
		attempted: int64(2*cycles*ingestCycleOps) + checks,
		failed:    failed + failed2 + wrong,
		metrics:   m, counts: counts, tracer: tr,
	}, nil
}
