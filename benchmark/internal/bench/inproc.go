package bench

import (
	"fmt"
	"runtime"
	"time"

	"adskip"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/workload"
)

// The two in-process workloads share everything but the distribution of
// v: skip-clustered can skip ~97% of the rows of every query,
// scan-uniform can skip none, so arbitration turns the probe off and the
// scan kernels do the work. One closed-loop driver goroutine calls
// Table.Query with 1%-selective COUNT(*) ranges that alternate between a
// hot tenth of the domain and the whole domain.

// countQuery is one prepared COUNT(*) range query and its expected answer.
type countQuery struct {
	q    engine.Query
	r    workload.Range
	want int
}

func newCountQuery(col string, r workload.Range) countQuery {
	return countQuery{
		r: r,
		q: engine.Query{
			Where: expr.And(expr.MustPred(col, expr.Between, storage.IntValue(r.Lo), storage.IntValue(r.Hi))),
			Aggs:  []engine.Agg{{Kind: engine.CountStar}},
		},
	}
}

// rangeStream returns n predicates over [0, domain): even positions
// uniform inside the hot tenth of the domain, odd ones uniform over the
// whole domain, both from workload.NewGen. The hot component is what makes
// a skew-aware metadata change visible. The hot tenth is the same
// [hotStart, hotStart+hotFrac) of the domain for every seed: the branchy
// scan kernel costs up to 3x more in the middle of the domain than at its
// ends, so a hot region placed by the seed would make the seed, not the
// program, decide scan-uniform's median.
func rangeStream(seed int64, domain int64, n int) []workload.Range {
	hotWidth := int64(hotFrac * float64(domain))
	hotLo := int64(hotStart * float64(domain))
	hot := workload.NewGen(workload.QuerySpec{Kind: workload.UniformRange, Domain: hotWidth, Selectivity: selectivity / hotFrac, Seed: seed*2 + 1})
	uni := workload.NewGen(workload.QuerySpec{Kind: workload.UniformRange, Domain: domain, Selectivity: selectivity, Seed: seed*2 + 2})
	out := make([]workload.Range, n)
	for i := range out {
		if i%2 == 0 {
			r := hot.Next()
			out[i] = workload.Range{Lo: r.Lo + hotLo, Hi: r.Hi + hotLo}
		} else {
			out[i] = uni.Next()
		}
	}
	return out
}

// inproc is one set-up instance of an in-process workload.
type inproc struct {
	db      *adskip.DB
	tbl     *adskip.Table
	v       []int64 // the generated column, kept for the oracle
	quiesce int     // warm-up queries run before the zonemap stopped splitting
}

func (p *inproc) Close() error { return p.db.Close() }

// setupInproc is the timed set-up: generate, load, build the skipper,
// warm up.
func setupInproc(e *env, dist workload.Distribution, stream []countQuery) (*inproc, error) {
	rows := e.size.rows
	v := workload.Generate(workload.DataSpec{N: rows, Dist: dist, Domain: int64(rows), Clusters: clusterBands, Seed: e.cfg.Seed})
	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive})
	tbl, err := loadTable(db, v, e.cfg.Seed+1, 0)
	if err == nil {
		err = tbl.EnableSkipping("v")
	}
	p := &inproc{db: db, tbl: tbl, v: v}
	if err == nil {
		p.quiesce, err = warmUp(e, func(i int) error {
			_, err := tbl.Query(stream[i%len(stream)].q)
			return err
		}, func() int {
			var st adaptiveState
			st.add(tbl.Engine().Skipper("v"))
			return st.splits
		})
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return p, nil
}

// warmUp runs the workload's first warmup queries before anything is
// timed: the zonemap does its splitting here. The length is fixed — a
// warm-up that ran until the splitting stopped made setup_s depend on the
// seed by a factor of two — and the return value says when the splitting
// did stop: the number of queries run up to the end of the last eighth of
// the warm-up in which the split counter moved (the full length if it was
// still moving at the end).
func warmUp(e *env, query func(i int) error, splits func() int) (int, error) {
	const parts = 8
	n := e.size.warmup
	quiet := 0
	for part := 0; part < parts; part++ {
		before := splits()
		for i := part * n / parts; i < (part+1)*n/parts; i++ {
			if err := query(i); err != nil {
				return 0, fmt.Errorf("warm-up query %d: %w", i, err)
			}
		}
		if splits() != before {
			quiet = (part + 1) * n / parts
		}
	}
	return quiet, nil
}

// queryWindow runs n queries of the stream, closed loop, checking every
// answer. Nothing in the loop allocates on the benchmark's side.
func (p *inproc) queryWindow(stream []countQuery, n int, each func(i int, q *countQuery, res *adskip.Result, t0, t1 time.Time)) (w *window, failed int64) {
	w = newWindow(n, 1)
	w.run(n, func(i int) {
		q := &stream[i%len(stream)]
		t0 := time.Now()
		res, err := p.tbl.Query(q.q)
		t1 := time.Now()
		w.add(t1.Sub(t0))
		if err != nil || res.Count != q.want {
			failed++
			return
		}
		if each != nil {
			each(i, q, res, t0, t1)
		}
	})
	return w, failed
}

func runInProcess(e *env) (outcome, error) {
	dist := workload.Clustered
	if e.cfg.Workload == ScanUniform {
		dist = workload.Uniform
	}
	rows := e.size.rows
	ranges := rangeStream(e.cfg.Seed, int64(rows), streamLen)
	stream := make([]countQuery, len(ranges))
	for i, r := range ranges {
		stream[i] = newCountQuery("v", r)
	}

	p, setupS, err := medianSetup(e, func() (*inproc, error) { return setupInproc(e, dist, stream) })
	if err != nil {
		return outcome{}, err
	}
	defer p.Close()

	e.phase("oracle")
	oracle := newSortedOracle(p.v)
	for i := range stream {
		stream[i].want = oracle.count(stream[i].r.Lo, stream[i].r.Hi)
	}
	oracle, p.v = nil, nil

	if e.cfg.Trace {
		return p.traced(e, stream)
	}

	e.phase("timed window")
	n := e.windowOps()
	w, failed := p.queryWindow(stream, n, nil)
	windowMetrics(e, []*window{w}) // logged; reported by the traced run
	stream = nil
	m := map[string]float64{"setup_s": setupS, "heap_mb": heapMB()}
	runtime.KeepAlive(p)
	return outcome{attempted: int64(n), failed: failed, metrics: m}, nil
}

// traced runs the traced prefix: the same queries once untraced (for the
// overhead ratio and the allocation counts) and once with a span around
// every entry call and the ladder replayed on 1 query in ladderEvery.
func (p *inproc) traced(e *env, stream []countQuery) (outcome, error) {
	n := e.size.traceOps
	eng := p.tbl.Engine()

	e.phase("untraced prefix")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, failed := p.queryWindow(stream, n, nil)
	runtime.ReadMemStats(&after)

	e.phase("traced prefix")
	tr := newTracer(n + 8*(n/ladderEvery+1))
	r := newRungs(tr, n/ladderEvery+1)
	ladder, err := newEngineLadder(eng, r, "v")
	if err != nil {
		return outcome{}, err
	}
	var wrongRungs int64
	traced, failed2 := p.queryWindow(stream, n, func(i int, q *countQuery, res *adskip.Result, t0, t1 time.Time) {
		root := tr.record("Table.Query", t0, t1, -1, int32(i), false)
		if i%ladderEvery != 0 {
			return
		}
		r.sample(rungQuery, t1.Sub(t0).Nanoseconds())
		r.sample(rungFeedback, res.Trace.Feedback.Nanoseconds())
		wrongRungs += int64(ladder.replay(q.q, q.want, root, int32(i)))
	})

	m := windowMetrics(e, []*window{plain})
	r.engineLayerMetrics(m)
	var st adaptiveState
	st.add(eng.Skipper("v"))
	st.metrics(m)
	m["adaptive.queries_to_quiesce"] = float64(p.quiesce)
	m["engine.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	m["engine.bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	m["trace.overhead_frac"] = traced.lat.percentile(50)/plain.lat.percentile(50) - 1

	counts := r.exactCounts()
	st.counts(counts)
	counts["adaptive.queries_to_quiesce"] = float64(p.quiesce)
	return outcome{
		attempted: int64(2*n) + ladderChecks*int64(r.count["adaptive.probes"]),
		failed:    failed + failed2 + wrongRungs,
		metrics:   m, counts: counts, tracer: tr,
	}, nil
}
