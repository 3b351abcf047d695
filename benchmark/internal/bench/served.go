package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"adskip"
	"adskip/internal/client"
	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/proto"
	"adskip/internal/server"
	"adskip/internal/shard"
	"adskip/internal/sql"
	"adskip/internal/workload"
)

// served-zipf: a clustered table in a DB opened with Shards: 2 (range on
// v), served in this process over loopback and driven by two closed-loop
// client connections that send SQL text picked Zipf(1.2) from 1024 fixed
// templates — four times the statement cache, so hits, misses and
// evictions all happen. One template in five is an ORDER BY seq LIMIT 100
// projection, the rest COUNT(*) ranges. SQL, protocol, server and shard
// scatter/merge do most of the work here; the skipper does little.

// template is one fixed SQL text with its expected answer.
type template struct {
	text    string
	r       workload.Range
	ordered bool     // ORDER BY seq LIMIT servedLimit projection
	count   int      // expected COUNT(*), or expected row count when ordered
	seqs    []string // expected seq cells in order, when ordered
}

// isOrdered picks which template ranks are projections: ranks 1, 6, 11...
// carry ~20% of Zipf(1.2) traffic as well as 20% of the templates, and the
// choice does not depend on the seed, so the traffic mix is the same for
// every seed.
func isOrdered(rank int) bool { return rank%5 == 1 }

func makeTemplates(seed int64, domain int64) []template {
	ranges := rangeStream(seed, domain, servedTemplates)
	ts := make([]template, len(ranges))
	for i, r := range ranges {
		ts[i] = template{r: r, ordered: isOrdered(i)}
		if ts[i].ordered {
			ts[i].text = fmt.Sprintf("SELECT v, seq FROM %s WHERE v BETWEEN %d AND %d ORDER BY seq LIMIT %d", tableName, r.Lo, r.Hi, servedLimit)
		} else {
			ts[i].text = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE v BETWEEN %d AND %d", tableName, r.Lo, r.Hi)
		}
	}
	return ts
}

// check compares a decoded wire result with the template's expectation.
func (t *template) check(res *proto.Result) bool {
	if res.Count != t.count {
		return false
	}
	if !t.ordered {
		if len(res.Aggs) != 1 {
			return false
		}
		n, ok := res.Aggs[0].(json.Number)
		return ok && string(n) == strconv.Itoa(t.count)
	}
	if len(res.Rows) != len(t.seqs) {
		return false
	}
	for i, row := range res.Rows {
		if len(row) != 2 {
			return false
		}
		v, ok1 := row[0].(json.Number)
		seq, ok2 := row[1].(json.Number)
		if !ok1 || !ok2 || string(seq) != t.seqs[i] {
			return false
		}
		x, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil || x < t.r.Lo || x > t.r.Hi {
			return false
		}
	}
	return true
}

// checkEngine is check for an in-process result.
func (t *template) checkEngine(res *engine.Result) bool {
	if res.Count != t.count {
		return false
	}
	if !t.ordered {
		return true
	}
	if len(res.Rows) != len(t.seqs) {
		return false
	}
	for i, row := range res.Rows {
		if strconv.FormatInt(row[1].Int(), 10) != t.seqs[i] || row[0].Int() < t.r.Lo || row[0].Int() > t.r.Hi {
			return false
		}
	}
	return true
}

// zipfPicks draws n template ranks.
func zipfPicks(seed int64, n int) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, servedZipfS, 1, servedTemplates-1)
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(z.Uint64())
	}
	return out
}

// served is one set-up instance.
type served struct {
	db      *adskip.DB
	tbl     *adskip.Table
	srv     *server.Server
	addr    string
	clients []*client.Client
	v       []int64
	quiesce int
}

// Close tears down in dependency order — clients, server, DB — and
// verifies the listener is gone.
func (s *served) Close() error {
	var err error
	for _, c := range s.clients {
		if cerr := c.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("client close: %w", cerr))
		}
	}
	s.clients = nil
	if s.srv != nil {
		if cerr := s.srv.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("server close: %w", cerr))
		}
		s.srv = nil
		if conn, derr := net.DialTimeout("tcp", s.addr, 200*time.Millisecond); derr == nil {
			conn.Close()
			err = errors.Join(err, fmt.Errorf("listener %s still accepts connections after Close", s.addr))
		}
	}
	return errors.Join(err, s.db.Close())
}

// dial replaces the instance's connections.
func (s *served) dial(timing bool) error {
	for _, c := range s.clients {
		if err := c.Close(); err != nil {
			return err
		}
	}
	s.clients = nil
	for i := 0; i < servedConns; i++ {
		c, err := client.Dial(s.addr, client.Options{Timeout: 30 * time.Second, Timing: timing})
		if err != nil {
			return fmt.Errorf("dial %s: %w", s.addr, err)
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// shardState folds the structure counters of every shard's v skipper.
func (s *served) shardState() adaptiveState {
	var st adaptiveState
	m := s.tbl.Executor().(*shard.Manager)
	for id := 1; id <= m.Shards(); id++ {
		st.add(m.ShardEngine(id).Skipper("v"))
	}
	return st
}

// shardLead is how many rows, sampled at a fixed stride, are loaded as
// the first batch of a sharded table. Range sharding learns its
// equi-depth bounds from the first sizable batch; the first 64Ki rows of
// a clustered column are a handful of bands, so learning from them would
// leave the shards unbalanced by an amount that depends on the seed.
const shardLead = 1024

func setupServed(e *env, ts []template) (*served, error) {
	rows := e.size.rows
	v := workload.Generate(workload.DataSpec{N: rows, Dist: workload.Clustered, Domain: int64(rows), Clusters: servedBands, Seed: e.cfg.Seed})
	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive, Shards: 2, ShardKey: "v", ShardBy: "range"})
	s := &served{db: db, v: v}
	fail := func(err error) (*served, error) {
		s.Close()
		return nil, err
	}
	var err error
	if s.tbl, err = loadTable(db, v, e.cfg.Seed+1, shardLead); err != nil {
		return fail(err)
	}
	if err := s.tbl.EnableSkipping("v"); err != nil {
		return fail(err)
	}
	if s.srv, err = server.Start(db, server.Options{Addr: "127.0.0.1:0"}); err != nil {
		return fail(err)
	}
	s.addr = s.srv.Addr().String()
	if err := s.dial(false); err != nil {
		return fail(err)
	}
	picks := zipfPicks(e.cfg.Seed*31+7, e.size.warmup)
	s.quiesce, err = warmUp(e, func(i int) error {
		_, err := s.clients[0].Query(ts[picks[i]].text)
		return err
	}, func() int { return s.shardState().splits })
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// opRecord is what a traced connection keeps per operation.
type opRecord struct {
	t0, t1 time.Time
	timing proto.Timing
}

// connQuery runs operation i of a connection's window: one closed-loop
// query, checked. ops, when non-nil, receives the per-operation record of
// the traced run.
func connQuery(w *window, c *client.Client, ts []template, picks []uint16, i int, ops []opRecord) (failed int64) {
	t := &ts[picks[i%len(picks)]]
	t0 := time.Now()
	res, err := c.Query(t.text)
	t1 := time.Now()
	w.add(t1.Sub(t0))
	if ops != nil {
		ops[i] = opRecord{t0: t0, t1: t1}
		if res != nil && res.Timing != nil {
			ops[i].timing = *res.Timing
		}
	}
	if err != nil || !t.check(res) {
		return 1
	}
	return 0
}

// drive runs one window of perConn operations on every connection at once,
// one closed-loop goroutine each, and returns when all have finished.
func (s *served) drive(ts []template, picks [][]uint16, perConn int, ops [][]opRecord) ([]*window, int64) {
	ws := make([]*window, len(s.clients))
	for i := range ws {
		ws[i] = newWindow(perConn, 1)
	}
	fails := make([]int64, len(s.clients))
	var wg sync.WaitGroup
	for i, cl := range s.clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			var o []opRecord
			if ops != nil {
				o = ops[i]
			}
			ws[i].run(perConn, func(j int) {
				fails[i] += connQuery(ws[i], cl, ts, picks[i], j, o)
			})
		}(i, cl)
	}
	wg.Wait()
	var failed int64
	for _, f := range fails {
		failed += f
	}
	return ws, failed
}

func runServed(e *env) (outcome, error) {
	ts := makeTemplates(e.cfg.Seed, int64(e.size.rows))
	s, setupS, err := medianSetup(e, func() (*served, error) { return setupServed(e, ts) })
	if err != nil {
		return outcome{}, err
	}
	defer s.Close() // error paths; the success path closes and checks below

	e.phase("oracle")
	oracle := newRowOracle(s.v)
	for i := range ts {
		t := &ts[i]
		t.count = oracle.count(t.r.Lo, t.r.Hi)
		if t.ordered {
			first := oracle.firstRows(t.r.Lo, t.r.Hi, servedLimit)
			t.count = len(first)
			t.seqs = make([]string, len(first))
			for j, row := range first {
				t.seqs[j] = strconv.Itoa(int(row))
			}
		}
	}
	oracle = nil
	picks := make([][]uint16, servedConns)
	for i := range picks {
		picks[i] = zipfPicks(e.cfg.Seed*31+int64(i)+11, servedPicks)
	}

	var out outcome
	if e.cfg.Trace {
		out, err = s.traced(e, ts, picks)
	} else {
		out = s.timed(e, ts, picks, setupS)
	}
	if err != nil {
		return outcome{}, err
	}
	if err := s.Close(); err != nil {
		return outcome{}, fmt.Errorf("teardown: %w", err)
	}
	return out, nil
}

// timed runs the untraced window and returns the end-to-end metrics.
func (s *served) timed(e *env, ts []template, picks [][]uint16, setupS float64) outcome {
	s.v = nil
	e.phase("timed window")
	perConn := e.windowOps() / servedConns
	ws, failed := s.drive(ts, picks, perConn, nil)
	windowMetrics(e, ws) // logged; reported by the traced run
	ws = nil
	m := map[string]float64{"setup_s": setupS, "heap_mb": heapMB()}
	runtime.KeepAlive(s)
	return outcome{attempted: int64(perConn * servedConns), failed: failed, metrics: m}
}

// Rungs of the served ladder.
const (
	rungParse       = "sql.parse"
	rungPlan        = "sql.plan"
	rungFingerprint = "sql.fingerprint"
	rungExec        = "DB.Exec"
	rungShardCount  = "shard.query"
	rungShardOrder  = "shard.orderby_query"
	rungShardAny    = "shard.any_query"
	rungAttributed  = "shard.query_attributed"
	rungEncode      = "proto.encode"
	rungDecode      = "proto.decode"
)

func (s *served) traced(e *env, ts []template, picks [][]uint16) (outcome, error) {
	perConn := e.size.traceOps / servedConns

	e.phase("untraced prefix")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, failed := s.drive(ts, picks, perConn, nil)
	runtime.ReadMemStats(&after)

	e.phase("traced prefix")
	if err := s.dial(true); err != nil {
		return outcome{}, err
	}
	reg := s.db.Metrics()
	hits := reg.Counter("adskip_server_stmt_cache_hits_total", "")
	misses := reg.Counter("adskip_server_stmt_cache_misses_total", "")
	hits0, misses0 := hits.Load(), misses.Load()
	ops := make([][]opRecord, servedConns)
	for i := range ops {
		ops[i] = make([]opRecord, perConn)
	}
	timed, failed2 := s.drive(ts, picks, perConn, ops)
	hitRatio := float64(hits.Load()-hits0) / float64(hits.Load()-hits0+misses.Load()-misses0)

	// The connections are idle from here on: the ladder replays connection
	// 0's sampled operations alone, so its rungs are not timed against a
	// second driver. Entry spans come first, connection 0's at indexes
	// equal to their operation numbers.
	ladderOps := perConn/ladderEvery + 1
	tr := newTracer(servedConns*perConn + 24*ladderOps)
	var sums struct{ rtt, total, queue, parsePlan, prune, scan, serialize, dispatch, network float64 }
	for c := range ops {
		for i, op := range ops[c] {
			tr.record("client.Query", op.t0, op.t1, -1, int32(c*perConn+i), false)
			tm := op.timing
			rtt := float64(op.t1.Sub(op.t0).Nanoseconds()) / 1e3
			sums.rtt += rtt
			sums.total += float64(tm.TotalUS)
			sums.queue += float64(tm.QueueUS)
			sums.parsePlan += float64(tm.ParseUS + tm.PlanUS)
			sums.prune += float64(tm.ShardPruneUS + tm.PruneUS)
			sums.scan += float64(tm.ScanUS)
			sums.serialize += float64(tm.SerializeUS)
			sums.dispatch += float64(tm.TotalUS - tm.PhaseSumUS())
			sums.network += rtt - float64(tm.TotalUS)
		}
	}
	nOps := float64(len(tr.spans))

	e.phase("ladder: unsharded twin")
	twinDB := adskip.Open(adskip.Options{Policy: adskip.Adaptive})
	defer twinDB.Close()
	twin, err := loadTable(twinDB, s.v, e.cfg.Seed+1, 0)
	if err != nil {
		return outcome{}, err
	}
	s.v = nil
	if err := twin.EnableSkipping("v"); err != nil {
		return outcome{}, err
	}
	if _, err := warmUp(e, func(i int) error {
		_, err := twin.Query(newCountQuery("v", ts[picks[0][i%len(picks[0])]].r).q)
		return err
	}, func() int {
		var st adaptiveState
		st.add(twin.Engine().Skipper("v"))
		return st.splits
	}); err != nil {
		return outcome{}, err
	}

	e.phase("ladder")
	r := newRungs(tr, ladderOps)
	ladder, err := newEngineLadder(twin.Engine(), r, "v")
	if err != nil {
		return outcome{}, err
	}
	exec := s.tbl.Executor()
	var checks, wrong int64
	var respBytes float64
	verify := func(ok bool) {
		checks++
		if !ok {
			wrong++
		}
	}
	for i := 0; i < perConn; i += ladderEvery {
		t := &ts[picks[0][i%len(picks[0])]]
		parent, req := int32(i), int32(i)

		t0 := time.Now()
		stmt, err := sql.Parse(t.text)
		t1 := time.Now()
		if err != nil {
			return outcome{}, fmt.Errorf("ladder parse %q: %w", t.text, err)
		}
		r.timed(rungParse, t0, t1, parent, req)

		t0 = time.Now()
		q, err := sql.Plan(stmt, exec.Table())
		t1 = time.Now()
		if err != nil {
			return outcome{}, fmt.Errorf("ladder plan %q: %w", t.text, err)
		}
		r.timed(rungPlan, t0, t1, parent, req)

		t0 = time.Now()
		fp := sql.Fingerprint(stmt)
		t1 = time.Now()
		r.timed(rungFingerprint, t0, t1, parent, req)

		t0 = time.Now()
		res, err := s.db.Exec(t.text)
		t1 = time.Now()
		r.timed(rungExec, t0, t1, parent, req)
		verify(err == nil && t.checkEngine(res))

		// The plain and the attributed query differ by well under their own
		// noise, and whichever runs second finds the caches warm: alternate
		// the order so that bias cancels over the ladder.
		ctx := obs.WithTemplate(context.Background(), fp)
		attributedFirst := (i/ladderEvery)%2 == 1
		var a0, a1 time.Time
		var aerr error
		if attributedFirst {
			a0 = time.Now()
			_, aerr = s.tbl.QueryContext(ctx, q)
			a1 = time.Now()
		}
		t0 = time.Now()
		res, err = s.tbl.Query(q)
		t1 = time.Now()
		if !attributedFirst {
			a0 = time.Now()
			_, aerr = s.tbl.QueryContext(ctx, q)
			a1 = time.Now()
		}
		verify(err == nil && t.checkEngine(res))
		verify(aerr == nil)
		if err != nil {
			continue
		}
		kind := rungShardCount
		if t.ordered {
			kind = rungShardOrder
		}
		r.timed(kind, t0, t1, parent, req)
		r.timed(rungAttributed, a0, a1, parent, req)
		r.sample(rungShardAny, t1.Sub(t0).Nanoseconds())
		r.count["shard.queries"]++
		r.count["shard.shards_pruned"] += float64(res.Stats.ShardsPruned)

		var buf bytes.Buffer
		t0 = time.Now()
		raw, err := json.Marshal(res)
		if err == nil {
			err = proto.WriteMessage(&buf, proto.Response{OK: true, Result: raw})
		}
		t1 = time.Now()
		if err != nil {
			return outcome{}, fmt.Errorf("ladder encode: %w", err)
		}
		r.timed(rungEncode, t0, t1, parent, req)
		respBytes += float64(buf.Len())

		t0 = time.Now()
		resp, err := proto.ReadResponse(&buf, proto.MaxFrameDefault)
		var decoded proto.Result
		if err == nil {
			dec := json.NewDecoder(bytes.NewReader(resp.Result))
			dec.UseNumber()
			err = dec.Decode(&decoded)
		}
		t1 = time.Now()
		r.timed(rungDecode, t0, t1, parent, req)
		verify(err == nil && t.check(&decoded))

		if !t.ordered {
			t0 = time.Now()
			res, err := twin.Query(q)
			t1 = time.Now()
			verify(err == nil && res.Count == t.count)
			if err != nil {
				continue
			}
			r.timed(rungQuery, t0, t1, parent, req)
			r.sample(rungFeedback, res.Trace.Feedback.Nanoseconds())
			checks += ladderChecks
			wrong += int64(ladder.replay(q, t.count, parent, req))
		}
	}

	m := windowMetrics(e, plain)
	r.engineLayerMetrics(m)
	st := s.shardState()
	st.metrics(m)
	m["adaptive.queries_to_quiesce"] = float64(s.quiesce)
	nA := float64(perConn * servedConns)
	m["engine.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / nA
	m["engine.bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / nA
	m["sql.parse_ns"] = r.p50(rungParse)
	m["sql.plan_ns"] = r.p50(rungPlan)
	m["sql.fingerprint_ns"] = r.p50(rungFingerprint)
	m["sql.exec_self_us"] = (r.p50(rungExec) - r.p50(rungShardAny)) / 1e3
	m["stats.attribution_ns"] = r.p50(rungAttributed) - r.p50(rungShardAny)
	m["shard.query_us"] = r.p50(rungShardCount) / 1e3
	m["shard.orderby_query_us"] = r.p50(rungShardOrder) / 1e3
	if n := r.count["shard.queries"]; n > 0 {
		m["shard.shards_pruned_per_query"] = r.count["shard.shards_pruned"] / n
		m["proto.bytes_per_response"] = respBytes / n
	}
	m["proto.encode_ns"] = r.p50(rungEncode)
	m["proto.decode_ns"] = r.p50(rungDecode)
	if nOps > 0 {
		m["client.rtt_us"] = sums.rtt / nOps
		m["server.total_us"] = sums.total / nOps
		m["server.queue_us"] = sums.queue / nOps
		m["server.parse_plan_us"] = sums.parsePlan / nOps
		m["server.prune_us"] = sums.prune / nOps
		m["server.scan_us"] = sums.scan / nOps
		m["server.serialize_us"] = sums.serialize / nOps
		m["server.dispatch_us"] = sums.dispatch / nOps
		m["wire.network_us"] = sums.network / nOps
	}
	m["server.stmt_cache_hit_ratio"] = hitRatio
	m["trace.overhead_frac"] = mergedP50(timed)/mergedP50(plain) - 1

	return outcome{
		attempted: int64(2*perConn*servedConns) + checks,
		failed:    failed + failed2 + wrong,
		metrics:   m, counts: r.exactCounts(), tracer: tr,
	}, nil
}

// mergedP50 is the median latency over every driver's window.
func mergedP50(ws []*window) float64 {
	var all []int64
	for _, w := range ws {
		all = append(all, w.lat.ns...)
	}
	return percentileOf(all, 50)
}
