// Package loadgen is a closed-loop load generator for the adskip query
// server: N connections, each a worker that issues one request, waits
// for the response, and immediately issues the next until the deadline.
// Closed-loop means offered load adapts to server latency — the
// generator measures sustainable throughput rather than piling up an
// unbounded backlog.
//
// Workers draw from a fixed pool of query templates with a Zipf-skewed
// pick, mimicking the hot-template traffic a prepared-statement cache
// exists for: a handful of templates dominate, so the server's cache
// should show a high hit rate under this load.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"adskip/internal/client"
	"adskip/internal/proto"
)

// Options configures a run. Zero values select the defaults noted.
type Options struct {
	Addr        string
	Conns       int           // concurrent connections (default 8)
	Duration    time.Duration // run length (default 5s)
	Table       string        // target table (default "data")
	Col         string        // predicate column (default "v")
	Domain      int64         // predicate value domain [0,Domain) (default 1<<20)
	Templates   int           // distinct query templates (default 64)
	ZipfS       float64       // Zipf skew across templates, >1 (default 1.2)
	Selectivity float64       // fraction of the domain per range (default 0.01)
	Point       bool          // equality predicates instead of ranges
	Prepared    bool          // prepare once per template, then exec by ID
	Seed        int64         // RNG seed for templates and picks (default 1)
	Timeout     time.Duration // per-request timeout (default 10s)
	// Timing tags every request with a trace ID and asks the server for
	// its latency breakdown, so the report can attribute client-observed
	// latency to server execution, server-side queueing, and the network.
	Timing bool
	// InsertFraction makes that fraction of requests inserts instead of
	// queries (0 = read-only). Inserted rows follow the adskip-gen shape
	// (v BIGINT, seq BIGINT, noise DOUBLE): v uniform over the domain,
	// seq a worker-unique counter, so the target table must have that
	// schema. A mixed read/write load is what the crash-torture harness
	// runs while it kill -9s the server.
	InsertFraction float64
	// InsertBatch is rows per insert request (default 16).
	InsertBatch int
	// Retries enables client-side retry of retryable refusals (overload,
	// WAL recovery) with that many attempts beyond the first.
	// Retried-then-succeeded requests count as successes; the retry
	// volume is reported separately in Report.Retries.
	Retries int
}

func (o *Options) defaults() {
	if o.Conns <= 0 {
		o.Conns = 8
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Table == "" {
		o.Table = "data"
	}
	if o.Col == "" {
		o.Col = "v"
	}
	if o.Domain <= 0 {
		o.Domain = 1 << 20
	}
	if o.Templates <= 0 {
		o.Templates = 64
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.2
	}
	if o.Selectivity <= 0 || o.Selectivity > 1 {
		o.Selectivity = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.InsertFraction < 0 {
		o.InsertFraction = 0
	}
	if o.InsertFraction > 1 {
		o.InsertFraction = 1
	}
	if o.InsertBatch <= 0 {
		o.InsertBatch = 16
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
}

// Report is the outcome of one run.
type Report struct {
	Requests int64 // completed requests
	Errors   int64 // failed requests (transport or server error)
	Rows     int64 // sum of result counts (sanity signal, not a metric)
	// Inserts is the number of rows the server acknowledged as appended;
	// Retries the automatic retry volume (refused-then-retried attempts,
	// NOT errors — a request that eventually succeeded is a success).
	Inserts int64
	Retries int64
	Elapsed time.Duration
	QPS     float64
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
	Max     time.Duration

	// Latency attribution, populated when Options.Timing is set and the
	// server returns breakdowns. Server is the server-side total (frame
	// read to response ready), Queue its read-to-dispatch component, and
	// Network the per-request remainder (client RTT minus server total:
	// wire time plus client-side encode/decode).
	TimedRequests    int64 // requests that carried a server breakdown
	TimingViolations int64 // breakdowns that failed a sanity invariant
	ServerP50        time.Duration
	ServerP95        time.Duration
	ServerP99        time.Duration
	QueueP50         time.Duration
	QueueP95         time.Duration
	QueueP99         time.Duration
	NetworkP50       time.Duration
	NetworkP95       time.Duration
	NetworkP99       time.Duration
}

// String renders the report as the one-line-per-fact summary the CLI
// prints.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests  %d\n", r.Requests)
	fmt.Fprintf(&b, "errors    %d\n", r.Errors)
	if r.Inserts > 0 || r.Retries > 0 {
		fmt.Fprintf(&b, "inserts   %d\n", r.Inserts)
		fmt.Fprintf(&b, "retries   %d\n", r.Retries)
	}
	fmt.Fprintf(&b, "elapsed   %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "qps       %.0f\n", r.QPS)
	fmt.Fprintf(&b, "p50       %v\n", r.P50)
	fmt.Fprintf(&b, "p95       %v\n", r.P95)
	fmt.Fprintf(&b, "p99       %v\n", r.P99)
	fmt.Fprintf(&b, "max       %v", r.Max)
	if r.TimedRequests > 0 {
		fmt.Fprintf(&b, "\n\nlatency attribution (%d timed requests, %d violations)\n",
			r.TimedRequests, r.TimingViolations)
		fmt.Fprintf(&b, "%-9s %10s %10s %10s\n", "phase", "p50", "p95", "p99")
		fmt.Fprintf(&b, "%-9s %10v %10v %10v\n", "server", r.ServerP50, r.ServerP95, r.ServerP99)
		fmt.Fprintf(&b, "%-9s %10v %10v %10v\n", "queue", r.QueueP50, r.QueueP95, r.QueueP99)
		fmt.Fprintf(&b, "%-9s %10v %10v %10v", "network", r.NetworkP50, r.NetworkP95, r.NetworkP99)
	}
	return b.String()
}

// Run drives the server at opts.Addr and blocks until the duration
// elapses and every worker has drained.
func Run(opts Options) Report {
	opts.defaults()
	templates := makeTemplates(opts)
	deadline := time.Now().Add(opts.Duration)
	t0 := time.Now()

	stats := make([]workerStats, opts.Conns)
	var wg sync.WaitGroup
	for w := 0; w < opts.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w] = runWorker(opts, templates, deadline, w)
		}(w)
	}
	wg.Wait()

	merged := newHist()
	server, queue, network := newHist(), newHist(), newHist()
	rep := Report{Elapsed: time.Since(t0)}
	for i := range stats {
		rep.Requests += stats[i].requests
		rep.Errors += stats[i].errors
		rep.Rows += stats[i].rows
		rep.Inserts += stats[i].inserts
		rep.Retries += stats[i].retries
		rep.TimedRequests += stats[i].timed
		rep.TimingViolations += stats[i].violations
		merged.merge(stats[i].h)
		server.merge(stats[i].server)
		queue.merge(stats[i].queue)
		network.merge(stats[i].network)
		if stats[i].max > rep.Max {
			rep.Max = stats[i].max
		}
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.QPS = float64(rep.Requests) / secs
	}
	rep.P50 = merged.quantile(0.50)
	rep.P95 = merged.quantile(0.95)
	rep.P99 = merged.quantile(0.99)
	if rep.TimedRequests > 0 {
		rep.ServerP50 = server.quantile(0.50)
		rep.ServerP95 = server.quantile(0.95)
		rep.ServerP99 = server.quantile(0.99)
		rep.QueueP50 = queue.quantile(0.50)
		rep.QueueP95 = queue.quantile(0.95)
		rep.QueueP99 = queue.quantile(0.99)
		rep.NetworkP50 = network.quantile(0.50)
		rep.NetworkP95 = network.quantile(0.95)
		rep.NetworkP99 = network.quantile(0.99)
	}
	return rep
}

// makeTemplates builds the fixed query pool: COUNT(*) range (or point)
// predicates over the configured column, each covering Selectivity of
// the domain.
func makeTemplates(opts Options) []string {
	rng := rand.New(rand.NewSource(opts.Seed))
	width := int64(float64(opts.Domain) * opts.Selectivity)
	if width < 1 {
		width = 1
	}
	span := opts.Domain - width
	if span < 1 {
		span = 1
	}
	ts := make([]string, opts.Templates)
	for i := range ts {
		if opts.Point {
			ts[i] = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = %d",
				opts.Table, opts.Col, rng.Int63n(opts.Domain))
			continue
		}
		lo := rng.Int63n(span)
		ts[i] = fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s BETWEEN %d AND %d",
			opts.Table, opts.Col, lo, lo+width-1)
	}
	return ts
}

type workerStats struct {
	requests   int64
	errors     int64
	rows       int64
	inserts    int64
	retries    int64
	max        time.Duration
	h          *hist
	timed      int64 // responses carrying a server breakdown
	violations int64 // breakdowns failing a sanity invariant
	server     *hist // server-side total (Timing.TotalUS)
	queue      *hist // server-side queueing (Timing.QueueUS)
	network    *hist // client RTT minus server total
}

// runWorker is one closed-loop connection. Transport errors trigger a
// reconnect (and count as errors); an evicted prepared statement is
// normal protocol flow and is retried with a fresh prepare.
func runWorker(opts Options, templates []string, deadline time.Time, id int) workerStats {
	rng := rand.New(rand.NewSource(opts.Seed + int64(id)*7919 + 1))
	var zipf *rand.Zipf
	if len(templates) > 1 {
		zipf = rand.NewZipf(rng, opts.ZipfS, 1, uint64(len(templates)-1))
	}
	st := workerStats{h: newHist(), server: newHist(), queue: newHist(), network: newHist()}
	var c *client.Client
	stmts := make(map[int]uint64) // template index -> prepared stmt ID
	var insertSeq int64           // worker-unique seq values for inserted rows

	// closeClient retires the connection, folding its retry counter into
	// the worker's total first (the counter lives on the Client).
	closeClient := func() {
		if c != nil {
			st.retries += c.Retries()
			c.Close()
			c = nil
		}
	}
	defer closeClient()
	for time.Now().Before(deadline) {
		if c == nil {
			cc, err := client.Dial(opts.Addr, client.Options{
				Timeout: opts.Timeout, Timing: opts.Timing,
				Retry: client.RetryPolicy{Max: opts.Retries},
			})
			if err != nil {
				st.errors++
				time.Sleep(50 * time.Millisecond)
				continue
			}
			c = cc
			stmts = make(map[int]uint64)
		}
		if opts.InsertFraction > 0 && rng.Float64() < opts.InsertFraction {
			rows := make([][]any, opts.InsertBatch)
			for r := range rows {
				insertSeq++
				rows[r] = []any{rng.Int63n(opts.Domain), int64(id)<<40 | insertSeq, rng.Float64() * 1000}
			}
			start := time.Now()
			n, err := c.Insert(opts.Table, rows)
			if err != nil {
				st.errors++
				var se *client.ServerError
				if !errors.As(err, &se) {
					closeClient()
				}
				continue
			}
			lat := time.Since(start)
			st.requests++
			st.inserts += int64(n)
			st.h.observe(lat)
			if lat > st.max {
				st.max = lat
			}
			continue
		}
		i := 0
		if zipf != nil {
			i = int(zipf.Uint64())
		}
		// Each timed request carries a distinct trace ID, so its span tree
		// is findable in the server's /traces afterwards.
		var traceID string
		if opts.Timing {
			traceID = fmt.Sprintf("load-w%d-%d", id, st.requests)
		}
		start := time.Now()
		var res *proto.Result
		var err error
		if opts.Prepared {
			sid, ok := stmts[i]
			if !ok {
				if sid, err = c.Prepare(templates[i]); err == nil {
					stmts[i] = sid
				}
			}
			if err == nil {
				res, err = c.ExecTraced(sid, traceID)
			}
			var se *client.ServerError
			if errors.As(err, &se) && se.Kind == proto.ErrKindNoStmt {
				delete(stmts, i) // evicted under LRU pressure: re-prepare
				continue
			}
		} else {
			res, err = c.QueryTraced(templates[i], traceID)
		}
		if err != nil {
			st.errors++
			var se *client.ServerError
			if !errors.As(err, &se) {
				// Transport-level failure: the connection is suspect.
				closeClient()
			}
			continue
		}
		lat := time.Since(start)
		st.requests++
		st.rows += int64(res.Count)
		st.h.observe(lat)
		if lat > st.max {
			st.max = lat
		}
		if tm := res.Timing; tm != nil {
			st.timed++
			serverTotal := time.Duration(tm.TotalUS) * time.Microsecond
			// Two invariants every honest breakdown satisfies: the phases
			// sum to at most the server total, and the server total fits
			// inside the client-observed round trip (the server interval
			// is strictly contained in it).
			if tm.PhaseSumUS() > tm.TotalUS || serverTotal > lat {
				st.violations++
			}
			st.server.observe(serverTotal)
			st.queue.observe(time.Duration(tm.QueueUS) * time.Microsecond)
			net := lat - serverTotal
			if net < 0 {
				net = 0
			}
			st.network.observe(net)
		}
	}
	return st
}
