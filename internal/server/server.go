// Package server exposes an adskip.DB as a concurrent SQL-over-TCP query
// service speaking the internal/proto frame protocol.
//
// # Concurrency model
//
// One goroutine per connection: the session reads a frame, executes it and
// writes the response itself, strictly one request at a time (the protocol
// has no pipelining), so a request crosses no channel and wakes no second
// thread. A dead peer is still noticed while a query is executing: a
// request still running after liveAfter gets a watcher parked in a
// one-byte Peek on the connection, and a read error there cancels the
// in-flight query's context, which the engine honors at its cooperative
// checkpoints. Admission is bounded before Accept: the
// accept loop takes a connection slot first, so once MaxConns sessions
// are open, further clients queue in the kernel's accept backlog instead
// of consuming server memory — the listen queue is the backpressure.
//
// # Shutdown
//
// Close drains: the listener closes, idle sessions are poked awake and
// closed, sessions mid-request finish the request, write the response,
// and then exit. Close returns only after every session goroutine has
// exited, each having waited for its watcher, so a clean Close is also a
// leak check.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adskip"
	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/proto"
	sqlpkg "adskip/internal/sql"
	"adskip/internal/storage"
)

// Options configures a Server. Zero values select the defaults noted.
type Options struct {
	Addr          string        // listen address; ":0" picks a free port
	MaxConns      int           // simultaneous connections (default 256)
	MaxFrameBytes int           // per-frame size limit (default proto.MaxFrameDefault)
	IdleTimeout   time.Duration // close connections idle this long (default 5m)
	WriteTimeout  time.Duration // per-response write deadline (default 30s)
	StmtCacheSize int           // statement cache (LRU) capacity (default 256)
	// Logger receives structured server events: lifecycle at info,
	// connection open/close at debug, protocol errors at warn. Nil
	// disables logging.
	Logger *slog.Logger
}

// Server serves SQL queries against one adskip.DB over TCP.
type Server struct {
	db    *adskip.DB
	opts  Options
	ln    net.Listener
	m     *srvMetrics
	cache *stmtCache
	log   *slog.Logger

	done chan struct{} // closed when draining begins
	sem  chan struct{} // connection slots, taken before Accept

	mu       sync.Mutex
	sessions map[uint64]*session
	closed   bool
	closeErr error

	wg       sync.WaitGroup // accept loop + 1 goroutine per session (which waits for its own watcher)
	nextConn atomic.Uint64
}

// Start listens on opts.Addr and begins serving db. Metrics are
// registered on db.Metrics(), so they appear on the DB's telemetry
// /metrics endpoint automatically.
func Start(db *adskip.DB, opts Options) (*Server, error) {
	if opts.MaxConns <= 0 {
		opts.MaxConns = 256
	}
	if opts.MaxFrameBytes <= 0 {
		opts.MaxFrameBytes = proto.MaxFrameDefault
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 5 * time.Minute
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 30 * time.Second
	}
	if opts.StmtCacheSize <= 0 {
		opts.StmtCacheSize = 256
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		db:       db,
		opts:     opts,
		ln:       ln,
		m:        newSrvMetrics(db.Metrics()),
		cache:    newStmtCache(opts.StmtCacheSize),
		log:      opts.Logger,
		done:     make(chan struct{}),
		sem:      make(chan struct{}, opts.MaxConns),
		sessions: make(map[uint64]*session),
	}
	if s.log != nil {
		s.log.Info("server listening", "addr", ln.Addr().String(), "max_conns", opts.MaxConns)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close drains the server: stop accepting, let requests in flight finish
// and answer, close every connection, and wait for all per-connection
// goroutines to exit. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		s.closeErr = s.ln.Close()
		if s.log != nil {
			s.log.Info("server draining", "sessions", len(s.sessions))
		}
		// Poke every blocked read awake so idle sessions notice the drain
		// immediately instead of waiting out IdleTimeout. A session
		// mid-request takes the poke in its watcher, if one is parked,
		// where a deadline is never a dead peer: it does NOT cancel the
		// in-flight query.
		for _, ss := range s.sessions {
			ss.conn.SetReadDeadline(time.Now())
		}
	}
	err := s.closeErr
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) draining() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		// A connection slot is taken before Accept: at MaxConns open
		// sessions this loop parks here and new clients wait in the
		// kernel's listen backlog.
		select {
		case s.sem <- struct{}{}:
		case <-s.done:
			return
		}
		conn, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if errors.Is(err, net.ErrClosed) || s.draining() {
				return
			}
			time.Sleep(10 * time.Millisecond) // transient (e.g. EMFILE)
			continue
		}
		ss := s.newSession(conn)
		if ss == nil { // drain raced the accept
			conn.Close()
			<-s.sem
			continue
		}
		s.wg.Add(1)
		go ss.run()
	}
}

// liveAfter is how long a request runs before the session starts watching
// the connection for a vanished peer. Cancellation saves the rest of a
// query, so one shorter than this has nothing to gain from it, while
// starting a watcher costs a goroutine wake-up, a large share of a 30 µs
// cached COUNT. Not an option: no workload wants a different value, only
// "well above a cached query, well below a scan worth abandoning".
const liveAfter = time.Millisecond

// session is one client connection: its buffered transport, the context
// canceled when the connection dies, and the lazily started watcher that
// notices it dying under a running query.
type session struct {
	srv    *Server
	id     uint64
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	name   string          // "conn-<id>": the Session of its queries' origin
	ctx    context.Context // canceled on disconnect
	cancel context.CancelFunc
	buf    []byte // request payloads land here: handle keeps none of it

	// live fires watch liveAfter into a request; watched is watch's exit.
	// Between arm and disarm the watcher may own br; run touches br only
	// outside that bracket.
	live    *time.Timer
	watched chan struct{}
}

func (s *Server) newSession(conn net.Conn) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	id := s.nextConn.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	ss := &session{
		srv:     s,
		id:      id,
		conn:    conn,
		br:      bufio.NewReader(&countReader{r: conn, n: s.m.bytesRead}),
		bw:      bufio.NewWriter(&countWriter{w: conn, n: s.m.bytesSent}),
		name:    fmt.Sprintf("conn-%d", id),
		ctx:     ctx,
		cancel:  cancel,
		watched: make(chan struct{}, 1),
	}
	s.sessions[id] = ss
	s.m.connsTotal.Inc()
	s.m.connsActive.Add(1)
	if s.log != nil {
		s.log.Debug("connection open", "conn", id, "remote", conn.RemoteAddr().String())
	}
	return ss
}

// run reads, executes and answers requests one at a time until the
// connection or the server goes away.
func (ss *session) run() {
	s := ss.srv
	defer func() {
		ss.cancel()
		ss.conn.Close()
		s.mu.Lock()
		delete(s.sessions, ss.id)
		s.mu.Unlock()
		s.m.connsActive.Add(-1)
		if s.log != nil {
			s.log.Debug("connection closed", "conn", ss.id)
		}
		<-s.sem
		s.wg.Done()
	}()
	for {
		if s.opts.IdleTimeout > 0 {
			ss.conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		// Close pokes idle sessions with an immediate read deadline, and
		// the deadline set just above may have overwritten the poke: look
		// again, after it. A Close that begins later pokes later.
		if s.draining() {
			return
		}
		payload, err := proto.ReadFrameInto(ss.br, s.opts.MaxFrameBytes, &ss.buf)
		readAt := time.Now()
		if err != nil {
			var tooBig *proto.ErrFrameTooLarge
			if errors.As(err, &tooBig) {
				if s.log != nil {
					s.log.Warn("protocol error", "conn", ss.id, "err", tooBig)
				}
				ss.write(errResp(proto.ErrKindBadOp, tooBig.Error()))
			}
			// Otherwise EOF, a reset, the idle timeout or Close's poke:
			// nothing is in flight and there is no one to tell.
			return
		}
		s.m.framesRead.Inc()
		if s.draining() {
			// Read while the drain began: answer it with a shutdown error
			// rather than silently resetting the connection.
			ss.write(errResp(proto.ErrKindShutdown, "server shutting down"))
			return
		}
		ss.arm()
		resp := ss.handle(payload, readAt)
		ss.disarm()
		if !ss.write(resp) {
			return
		}
	}
}

// arm schedules the watcher for the request about to run. The timer is
// reused: a request that finishes inside liveAfter costs a Reset and a
// Stop, and no goroutine.
func (ss *session) arm() {
	if ss.live == nil {
		ss.live = time.AfterFunc(liveAfter, ss.watch)
	} else {
		ss.live.Reset(liveAfter)
	}
}

// disarm ends the watch before run reads the connection again. A watcher
// that has started is aborted with a read deadline in the past and waited
// for; the deadline is then cleared so the abort does not outlive it.
func (ss *session) disarm() {
	if ss.live.Stop() {
		return // never fired
	}
	ss.conn.SetReadDeadline(time.Unix(1, 0))
	<-ss.watched
	ss.conn.SetReadDeadline(time.Time{})
}

// watch is the liveness check of a long request: parked in a read while
// the query executes, it sees a peer that disappears as a read error and
// cancels the query's context. It consumes nothing — a byte that does
// arrive (the client's next request) stays in br for run's next ReadFrame.
// A deadline is never a dead peer: it is disarm's abort, Close's poke (the
// in-flight query must finish and answer), or the idle deadline lapsing
// under a query that outlived it.
func (ss *session) watch() {
	if _, err := ss.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		ss.cancel()
	}
	ss.watched <- struct{}{}
}

// write sends one response frame under the write deadline. A false
// return means the connection is unusable and the session should end.
func (ss *session) write(resp proto.Response) bool {
	ss.conn.SetWriteDeadline(time.Now().Add(ss.srv.opts.WriteTimeout))
	if err := proto.WriteMessage(ss.bw, resp); err != nil {
		return false
	}
	if err := ss.bw.Flush(); err != nil {
		return false
	}
	ss.srv.m.framesSent.Inc()
	return true
}

// handle dispatches one request and produces its response. When the
// request asks for timing, the response carries the server-side latency
// attribution: queue time (frame read to dispatch) is measured here, the
// parse/plan/prune/scan/serialize phases are filled in along the
// execution path, and TotalUS closes over everything just before the
// response goes back.
func (ss *session) handle(payload []byte, readAt time.Time) proto.Response {
	s := ss.srv
	req, err := proto.DecodeRequest(payload)
	if err != nil {
		s.m.failure(proto.ErrKindBadOp)
		if s.log != nil {
			s.log.Warn("bad request frame", "conn", ss.id, "err", err)
		}
		return errResp(proto.ErrKindBadOp, "bad request frame: "+err.Error())
	}
	s.m.request(req.Op)
	s.m.inflight.Add(1)
	t0 := time.Now()
	var tm *proto.Timing
	if req.WantTiming {
		tm = &proto.Timing{TraceID: req.TraceID, QueueUS: t0.Sub(readAt).Microseconds()}
	}
	defer func() {
		s.m.latency.Observe(time.Since(t0).Seconds())
		s.m.inflight.Add(-1)
	}()
	resp := ss.dispatch(&req, tm)
	if tm != nil {
		tm.TotalUS = time.Since(readAt).Microseconds()
		resp.Timing = tm
	}
	return resp
}

// dispatch routes one decoded request to its operation.
func (ss *session) dispatch(req *proto.Request, tm *proto.Timing) proto.Response {
	s := ss.srv
	switch req.Op {
	case proto.OpPing:
		return proto.Response{OK: true}
	case proto.OpCatalog:
		return proto.Response{OK: true, Tables: s.db.TableNames()}
	case proto.OpQuery:
		if resp, refused := s.gate(); refused {
			return resp
		}
		// The client's trace ID lets it find its queries in /traces.
		return ss.query(obs.Origin{Session: ss.name, TraceID: req.TraceID}, req.SQL, tm)
	case proto.OpInsert:
		if resp, refused := s.gate(); refused {
			return resp
		}
		return ss.insert(req)
	default:
		s.m.failure(proto.ErrKindBadOp)
		return errResp(proto.ErrKindBadOp, "unknown op "+strconv.Quote(req.Op))
	}
}

// gate is the admission gate in front of query and insert traffic.
// While the DB is replaying its write-ahead log the store is not yet
// consistent, so all data-touching ops are answered with a retryable
// "recovering" error — the server accepts connections during replay
// precisely so clients can park in a retry loop instead of failing
// over. The check is one atomic load, so the recovered path
// pays nothing measurable. Ping and catalog bypass the gate, so load
// balancers keep probing.
func (s *Server) gate() (proto.Response, bool) {
	if !s.db.Recovering() {
		return proto.Response{}, false
	}
	s.m.recovering.Inc()
	s.m.failure(proto.ErrKindRecovering)
	return errResp(proto.ErrKindRecovering,
		"server recovering: WAL replay in progress; retry shortly"), true
}

// insert appends req.Rows to req.Table. Cells are decoded against the
// table schema positionally — json.Number text straight to int64 for
// BIGINT columns (never through float64, so large keys round-trip
// losslessly), null for NULL. The whole batch is one engine append: on a
// durable DB the response is written only after the batch's WAL record
// is fsynced, so an acked insert survives kill -9.
func (ss *session) insert(req *proto.Request) proto.Response {
	s := ss.srv
	tbl, err := s.db.Table(req.Table)
	if err != nil {
		s.m.failure(proto.ErrKindNoTable)
		return errResp(proto.ErrKindNoTable, err.Error())
	}
	if len(req.Rows) == 0 {
		return proto.Response{OK: true}
	}
	schema := tbl.Executor().Table().Schema()
	rows := make([][]storage.Value, len(req.Rows))
	for i, raw := range req.Rows {
		if len(raw) != len(schema) {
			s.m.failure(proto.ErrKindBadInsert)
			return errResp(proto.ErrKindBadInsert,
				fmt.Sprintf("row %d has %d cells, table %q has %d columns", i, len(raw), req.Table, len(schema)))
		}
		vals := make([]storage.Value, len(raw))
		for j, cell := range raw {
			v, err := decodeCell(cell, schema[j].Type)
			if err != nil {
				s.m.failure(proto.ErrKindBadInsert)
				return errResp(proto.ErrKindBadInsert,
					fmt.Sprintf("row %d column %q: %v", i, schema[j].Name, err))
			}
			vals[j] = v
		}
		rows[i] = vals
	}
	if err := tbl.AppendBatch(rows); err != nil {
		s.m.failure(proto.ErrKindInternal)
		return errResp(proto.ErrKindInternal, "append: "+err.Error())
	}
	s.m.rowsInserted.Add(int64(len(rows)))
	return proto.Response{OK: true, Inserted: len(rows)}
}

// decodeCell decodes one JSON scalar against a column type.
func decodeCell(raw json.RawMessage, t storage.Type) (storage.Value, error) {
	if v := string(raw); v == "null" {
		return storage.NullValue(t), nil
	}
	switch t {
	case storage.Int64:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return storage.Value{}, fmt.Errorf("want BIGINT, got %s", raw)
		}
		i, err := n.Int64()
		if err != nil {
			return storage.Value{}, fmt.Errorf("not an int64: %s", raw)
		}
		return storage.IntValue(i), nil
	case storage.Float64:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return storage.Value{}, fmt.Errorf("want DOUBLE, got %s", raw)
		}
		f, err := n.Float64()
		if err != nil {
			return storage.Value{}, fmt.Errorf("not a float64: %s", raw)
		}
		return storage.FloatValue(f), nil
	case storage.String:
		var str string
		if err := json.Unmarshal(raw, &str); err != nil {
			return storage.Value{}, fmt.Errorf("want VARCHAR, got %s", raw)
		}
		return storage.StringValue(str), nil
	default:
		return storage.Value{}, fmt.Errorf("unsupported column type %v", t)
	}
}

// query executes SQL text. It is the statement cache's one way in: the
// cache key is the SQL text, so a repeated text skips the parser and
// planner entirely — a cache hit legitimately reports parse_us =
// plan_us = 0. org is the request's origin, completed and stamped on
// the session context once, where the query runs.
func (ss *session) query(org obs.Origin, sqlText string, tm *proto.Timing) proto.Response {
	s := ss.srv
	if ent, ok := s.cache.get(sqlText); ok {
		s.m.cacheHits.Inc()
		org.PlanCached = true
		return ss.exec(org, ent, tm)
	}
	s.m.cacheMisses.Inc()
	tParse := time.Now()
	stmt, err := sqlpkg.Parse(sqlText)
	if tm != nil {
		tm.ParseUS = time.Since(tParse).Microseconds()
	}
	if err != nil {
		s.m.failure(proto.ErrKindSyntax)
		return errResp(proto.ErrKindSyntax, err.Error())
	}
	tbl, err := s.db.Table(stmt.Table)
	if err != nil {
		s.m.failure(proto.ErrKindNoTable)
		return errResp(proto.ErrKindNoTable, err.Error())
	}
	if stmt.Explain {
		// EXPLAIN goes through the DB's SQL route (it renders plan text,
		// and EXPLAIN ANALYZE its workload and ledger footers) and is not
		// worth caching.
		res, err := s.db.ExecContext(obs.WithOrigin(ss.ctx, org), sqlText)
		if err != nil {
			return ss.execFailure(err)
		}
		return okResult(res, tm)
	}
	tPlan := time.Now()
	q, err := sqlpkg.Plan(stmt, tbl.Executor().Table())
	if tm != nil {
		tm.PlanUS = time.Since(tPlan).Microseconds()
	}
	if err != nil {
		s.m.failure(proto.ErrKindSyntax)
		return errResp(proto.ErrKindSyntax, err.Error())
	}
	ent, evicted := s.cache.put(&stmtEntry{sqlText: sqlText, fp: sqlpkg.Fingerprint(stmt), tbl: tbl, q: q})
	s.cacheAccount(evicted)
	return ss.exec(org, ent, tm)
}

// exec runs a cached plan under the session context, so disconnects
// cancel it, and wire-encodes the result. The origin carries the entry's
// fingerprint, so the DB's front door attributes the execution to its
// template: the statement cache and the workload table share keys.
func (ss *session) exec(org obs.Origin, ent *stmtEntry, tm *proto.Timing) proto.Response {
	org.Fingerprint = ent.fp
	res, err := ent.tbl.QueryContext(obs.WithOrigin(ss.ctx, org), ent.q)
	if err != nil {
		return ss.execFailure(err)
	}
	return okResult(res, tm)
}

// execFailure maps an execution error to its stable wire kind.
func (ss *session) execFailure(err error) proto.Response {
	kind := proto.ErrKindInternal
	switch {
	case errors.Is(err, engine.ErrCanceled):
		kind = proto.ErrKindCanceled
	case errors.Is(err, engine.ErrBudget):
		kind = proto.ErrKindBudget
	}
	ss.srv.m.failure(kind)
	return errResp(kind, err.Error())
}

// cacheAccount charges evictions from one cache insert and refreshes the
// size gauge.
func (s *Server) cacheAccount(evicted int) {
	if evicted > 0 {
		s.m.cacheEvictions.Add(int64(evicted))
	}
	s.m.cacheEntries.Set(int64(s.cache.size()))
}

// okResult wire-encodes a successful result and, when timing was
// requested, fills in the engine-attributed phases from the query's
// trace plus the serialization cost measured here.
func okResult(res *engine.Result, tm *proto.Timing) proto.Response {
	tSer := time.Now()
	raw := res.AppendJSON(nil)
	if tm != nil {
		tm.SerializeUS = time.Since(tSer).Microseconds()
		if tr := res.Trace; tr != nil {
			tm.PlanUS += tr.Plan.Microseconds()
			tm.ShardPruneUS = tr.ShardPrune.Microseconds()
			tm.PruneUS = tr.Probe.Microseconds()
			tm.ScanUS = (tr.Scan + tr.Feedback).Microseconds()
			tm.RowsSkipped = int64(tr.RowsSkipped)
		}
	}
	return proto.Response{OK: true, Result: raw}
}

func errResp(kind, msg string) proto.Response {
	return proto.Response{Error: msg, ErrKind: kind}
}

// countReader / countWriter charge transport bytes to a counter per
// syscall-sized chunk (they sit under the bufio layer, not per byte).
type countReader struct {
	r io.Reader
	n *obs.Counter
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
