package server_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adskip"
	"adskip/internal/client"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/proto"
	"adskip/internal/server"
)

// testDB builds a DB shaped like the generated "data" table at small scale:
// v = (i/1000)*1000 + i%7 (clustered), seq = i.
func testDB(t *testing.T, rows int) *adskip.DB {
	t.Helper()
	return testDBWith(t, rows, adskip.Options{Policy: adskip.Adaptive})
}

// testDBWith is testDB on a DB opened with opts.
func testDBWith(t *testing.T, rows int, opts adskip.Options) *adskip.DB {
	t.Helper()
	db := adskip.Open(opts)
	tbl, err := db.CreateTable("data", adskip.Col("v", adskip.Int64), adskip.Col("seq", adskip.Int64))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]adskip.Value, rows)
	for i := range batch {
		batch[i] = []adskip.Value{adskip.IntValue(int64((i/1000)*1000 + i%7)), adskip.IntValue(int64(i))}
	}
	if err := tbl.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer runs a server on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, db *adskip.DB, opts server.Options) *server.Server {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	srv, err := server.Start(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestQueryMatchesLocal proves a query answered over the wire is the
// query answered in-process: counts, aggregates, and projected rows.
func TestQueryMatchesLocal(t *testing.T) {
	db := testDB(t, 20000)
	defer db.Close()
	srv := startServer(t, db, server.Options{})
	c := dial(t, srv)

	queries := []string{
		"SELECT COUNT(*) FROM data WHERE v BETWEEN 3000 AND 3006",
		"SELECT COUNT(*), SUM(seq) FROM data WHERE v BETWEEN 0 AND 999",
		"SELECT v, seq FROM data WHERE seq BETWEEN 5 AND 8",
	}
	for _, q := range queries {
		local, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: local: %v", q, err)
		}
		remote, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: remote: %v", q, err)
		}
		if remote.Count != local.Count {
			t.Errorf("%s: count %d over the wire, %d locally", q, remote.Count, local.Count)
		}
		if len(remote.Aggs) != len(local.Aggs) {
			t.Errorf("%s: %d aggs over the wire, %d locally", q, len(remote.Aggs), len(local.Aggs))
		}
		if len(remote.Rows) != len(local.Rows) {
			t.Errorf("%s: %d rows over the wire, %d locally", q, len(remote.Rows), len(local.Rows))
		}
		for i, col := range local.Columns {
			if remote.Columns[i].Name != col {
				t.Errorf("%s: column %d is %q over the wire, %q locally", q, i, remote.Columns[i].Name, col)
			}
		}
	}
}

// TestRepeatedQueryHitsStmtCache checks the statement cache end to end:
// the first query of a text parses and plans, a repeat of the same text is
// served from the cache, and both answers match the in-process engine.
func TestRepeatedQueryHitsStmtCache(t *testing.T) {
	db := testDB(t, 20000)
	defer db.Close()
	srv := startServer(t, db, server.Options{})
	c := dial(t, srv)

	hits := db.Metrics().Counter("adskip_server_stmt_cache_hits_total", "")
	misses := db.Metrics().Counter("adskip_server_stmt_cache_misses_total", "")

	const q = "SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 1006"
	want, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want.Count {
			t.Fatalf("query %d: count %d, want %d", i, res.Count, want.Count)
		}
	}
	if m, h := misses.Load(), hits.Load(); m != 1 || h != 2 {
		t.Fatalf("three queries of one text: %d misses, %d hits; want 1 and 2", m, h)
	}
}

// TestServedQueryAccountedOnce: a query served over the wire enters the
// DB's front door once, on an unsharded and a 2-shard table: each request
// — the statement cache's miss and its hits alike — adds exactly one
// workload sample and one retained trace, and a wire EXPLAIN ANALYZE still
// carries its template's workload footer.
func TestServedQueryAccountedOnce(t *testing.T) {
	const q = "SELECT COUNT(*) FROM data WHERE v BETWEEN 3000 AND 3006"
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := testDBWith(t, 20000, adskip.Options{Policy: adskip.Adaptive, Shards: shards, ShardKey: "v"})
			defer db.Close()
			before := runtime.NumGoroutine()
			srv := startServer(t, db, server.Options{})
			c := dial(t, srv)

			for i := 1; i <= 3; i++ {
				if _, err := c.Query(q); err != nil {
					t.Fatal(err)
				}
				if got := db.Workload("", 0).Recorded; got != int64(i) {
					t.Fatalf("after %d queries: %d workload samples", i, got)
				}
				if got := len(db.Traces()); got != i {
					t.Fatalf("after %d queries: %d traces retained", i, got)
				}
			}
			top := db.Workload("", 0).Templates
			if len(top) != 1 || top[0].Calls != 3 || top[0].CacheHits != 2 {
				t.Fatalf("templates %+v, want one with 3 calls, 2 of them cache hits", top)
			}

			res, err := c.Query("EXPLAIN ANALYZE " + q)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("workload: template %q — 4 calls", top[0].Fingerprint)
			var footers int
			for _, row := range res.Rows {
				if line, _ := row[0].(string); strings.HasPrefix(line, want) {
					footers++
				}
			}
			if footers != 1 {
				t.Fatalf("wire EXPLAIN ANALYZE has %d footers starting %q, want 1: %v", footers, want, res.Rows)
			}
			if got := len(db.Traces()); got != 4 {
				t.Fatalf("after EXPLAIN ANALYZE: %d traces retained, want 4", got)
			}
			// A request that outlives liveAfter starts a watcher, whose
			// goroutine ends just after its session moves on. Close and let
			// the count settle, so a later test that counts goroutines
			// starts from a quiet process.
			c.Close()
			srv.Close()
			settleGoroutines(before)
		})
	}
}

// TestCatalogSorted creates tables in non-alphabetical order and checks
// the wire catalog is deterministic.
func TestCatalogSorted(t *testing.T) {
	db := adskip.Open(adskip.Options{})
	defer db.Close()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := db.CreateTable(name, adskip.Col("v", adskip.Int64)); err != nil {
			t.Fatal(err)
		}
	}
	srv := startServer(t, db, server.Options{})
	c := dial(t, srv)
	got, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("catalog %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog %v, want %v", got, want)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorKeepsConnectionUsable sends a stream of failing request frames
// and checks each gets a typed error and the session keeps serving.
// "prepare" and "exec" are not ops of the protocol: the statement cache is
// reached only through "query".
func TestErrorKeepsConnectionUsable(t *testing.T) {
	db := testDB(t, 2000)
	defer db.Close()
	srv := startServer(t, db, server.Options{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	send := func(frame string) proto.Decoded {
		t.Helper()
		if err := proto.WriteFrame(conn, []byte(frame)); err != nil {
			t.Fatal(err)
		}
		payload, err := proto.ReadFrame(conn, proto.MaxFrameDefault)
		if err != nil {
			t.Fatalf("%s: %v", frame, err)
		}
		resp, err := proto.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("%s: %v", frame, err)
		}
		return resp
	}

	cases := []struct{ frame, kind string }{
		{`{"op":"query","sql":"SELEKT nope"}`, proto.ErrKindSyntax},
		{`{"op":"query","sql":"SELECT COUNT(*) FROM missing"}`, proto.ErrKindNoTable},
		{`{"op":"prepare","sql":"SELECT 1"}`, proto.ErrKindBadOp},
		{`{"op":"prepare","sql":"EXPLAIN SELECT COUNT(*) FROM data"}`, proto.ErrKindBadOp},
		{`{"op":"exec","stmt":1}`, proto.ErrKindBadOp},
	}
	for _, tc := range cases {
		if resp := send(tc.frame); resp.OK || resp.ErrKind != tc.kind {
			t.Fatalf("%s: response %+v, want error kind %q", tc.frame, resp.Response, tc.kind)
		}
		resp := send(`{"op":"query","sql":"SELECT COUNT(*) FROM data"}`)
		if !resp.OK || resp.Result == nil || resp.Result.Count != 2000 {
			t.Fatalf("connection broken after %s: %+v", tc.frame, resp.Response)
		}
	}
}

// TestFrameTooLargeRejected sends a hostile length prefix; the server
// must answer with a typed error, not allocate, and hang up.
func TestFrameTooLargeRejected(t *testing.T) {
	db := testDB(t, 2000)
	defer db.Close()
	srv := startServer(t, db, server.Options{MaxFrameBytes: 1 << 16})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := proto.ReadResponse(conn, proto.MaxFrameDefault)
	if err != nil {
		t.Fatalf("no error response before hangup: %v", err)
	}
	if resp.OK || resp.ErrKind != proto.ErrKindBadOp {
		t.Fatalf("response %+v, want error kind %q", resp, proto.ErrKindBadOp)
	}
	if _, err := proto.ReadResponse(conn, proto.MaxFrameDefault); err == nil {
		t.Fatal("connection still open after protocol violation")
	}
}

// TestDisconnectCancelsQuery closes the client mid-query and waits for
// the engine's canceled counter to tick: the session's disconnect watcher
// noticed the dead peer and canceled the in-flight context.
func TestDisconnectCancelsQuery(t *testing.T) {
	// Four checkpoint intervals (the engine checks every 1<<16 rows), and
	// a predicate on the column without a skipper, so the query scans
	// every row and several checkpoints follow the close.
	db := testDB(t, 4<<16)
	defer db.Close()
	srv := startServer(t, db, server.Options{})

	// Stretch every scan checkpoint so the query comfortably outlives
	// the client.
	inj := faultinject.New(3).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 100 * time.Millisecond})
	restore := faultinject.Activate(inj)
	defer restore()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteMessage(conn, proto.Request{Op: proto.OpQuery,
		SQL: "SELECT COUNT(*) FROM data WHERE seq >= 0"}); err != nil {
		t.Fatal(err)
	}
	// Close while the query sleeps in its first checkpoint (the injector
	// counts a fire before it sleeps).
	deadline := time.Now().Add(5 * time.Second)
	for inj.Fires(faultinject.ScanDelay) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	canceled := db.Metrics().Counter("adskip_queries_canceled_total",
		"Queries stopped by context cancellation.", obs.L("table", "data"))
	for canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query not canceled after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseDrainsInFlight starts a slow query, closes the server during
// it, and requires the client to still receive its full response: drain
// means finish-and-answer, not abort.
func TestCloseDrainsInFlight(t *testing.T) {
	db := testDB(t, 20000)
	defer db.Close()
	srv, err := server.Start(db, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 50 * time.Millisecond}))
	defer restore()

	c, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type outcome struct {
		count int
		err   error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := c.Query("SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 20000")
		if err != nil {
			got <- outcome{err: err}
			return
		}
		got <- outcome{count: res.Count}
	}()
	time.Sleep(60 * time.Millisecond) // the query is mid-scan
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	o := <-got
	if o.err != nil {
		t.Fatalf("in-flight query aborted by drain: %v", o.err)
	}
	want, err := db.Exec("SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 20000")
	if err != nil {
		t.Fatal(err)
	}
	if o.count != want.Count {
		t.Fatalf("drained query answered %d, want %d", o.count, want.Count)
	}
}

// TestCloseLeaksNothing is the leak check: open connections, run
// traffic, close the server, and require the goroutine count to return
// to its pre-server level.
func TestCloseLeaksNothing(t *testing.T) {
	db := testDB(t, 2000)
	defer db.Close()
	before := runtime.NumGoroutine()

	srv, err := server.Start(db, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*client.Client, 8)
	for i := range clients {
		c, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		if _, err := c.Query("SELECT COUNT(*) FROM data"); err != nil {
			t.Fatal(err)
		}
	}
	// Half the clients disconnect themselves; the rest are still open
	// (some idle mid-connection) when Close drains.
	for i, c := range clients {
		if i%2 == 0 {
			c.Close()
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, c := range clients {
		c.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A server can start again on the same DB afterwards.
	srv2, err := server.Start(db, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, srv2)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxConnsBackpressure fills every connection slot and checks an
// extra client parks in the accept backlog (not rejected) until a slot
// frees.
func TestMaxConnsBackpressure(t *testing.T) {
	db := testDB(t, 2000)
	defer db.Close()
	srv := startServer(t, db, server.Options{MaxConns: 2})

	c1, c2 := dial(t, srv), dial(t, srv)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	// The third connection dials fine (kernel backlog) but is not
	// serviced while both slots are held.
	c3, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.Ping(); err == nil {
		t.Fatal("third connection serviced despite MaxConns=2")
	}
	// Free a slot. c3 is first in the backlog and its socket is already
	// closed client-side, so the server accepts it, sees EOF, and frees
	// the slot again for a fresh connection.
	c3.Close()
	c1.Close()
	c4, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	if err := c4.Ping(); err != nil {
		t.Fatalf("connection not serviced after slot freed: %v", err)
	}
}

// TestTimingBreakdown proves the wire-level timing contract: a request
// that asks for timing gets a breakdown whose phases sum to no more than
// the total, whose trace ID tags the engine-side trace, and a request
// that doesn't ask gets none.
func TestTimingBreakdown(t *testing.T) {
	db := adskip.Open(adskip.Options{Policy: adskip.Adaptive})
	defer db.Close()
	tbl, err := db.CreateTable("data", adskip.Col("v", adskip.Int64), adskip.Col("seq", adskip.Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := tbl.Append((i/1000)*1000+i%7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, db, server.Options{})

	tc, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 30 * time.Second, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	const q = "SELECT COUNT(*) FROM data WHERE v BETWEEN 3000 AND 3006"
	t0 := time.Now()
	res, err := tc.QueryTraced(q, "test-trace-1")
	if err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(t0)

	tm := res.Timing
	if tm == nil {
		t.Fatal("timing requested but response carried none")
	}
	if tm.TraceID != "test-trace-1" {
		t.Fatalf("breakdown echoes trace %q, want test-trace-1", tm.TraceID)
	}
	if tm.TotalUS <= 0 {
		t.Fatalf("TotalUS = %d, want > 0", tm.TotalUS)
	}
	if sum := tm.PhaseSumUS(); sum > tm.TotalUS {
		t.Fatalf("phase sum %dus exceeds total %dus: %+v", sum, tm.TotalUS, tm)
	}
	if serverTotal := time.Duration(tm.TotalUS) * time.Microsecond; serverTotal > rtt {
		t.Fatalf("server total %v exceeds client round-trip %v", serverTotal, rtt)
	}
	if tm.RowsSkipped != int64(res.Stats.RowsSkipped) {
		t.Fatalf("breakdown says %d rows skipped, stats say %d", tm.RowsSkipped, res.Stats.RowsSkipped)
	}

	// The trace ID must tag the engine-side trace for /traces correlation.
	var found bool
	for _, tr := range db.Traces() {
		if tr.TraceID == "test-trace-1" {
			found = true
		}
	}
	if !found {
		t.Fatal("trace ID missing from the engine trace ring")
	}

	// A fresh query with the cached plan: parse/plan legitimately hit 0us,
	// but the invariants must still hold.
	res2, err := tc.QueryTraced(q, "test-trace-2")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Timing == nil || res2.Timing.PhaseSumUS() > res2.Timing.TotalUS {
		t.Fatalf("cached-plan breakdown broken: %+v", res2.Timing)
	}

	// No timing asked -> none attached (and no breakdown work done).
	pc := dial(t, srv)
	res3, err := pc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Timing != nil {
		t.Fatalf("unsolicited timing attached: %+v", res3.Timing)
	}
}

// settleGoroutines waits for the process's goroutine count to reach want
// and reports the count it last saw.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// steadyGoroutines returns the process's goroutine count once it has held
// for steadyPolls polls in a row, so that goroutines an earlier test left
// exiting are gone from a baseline; after 2 s it returns the last count.
func steadyGoroutines() int {
	const steadyPolls = 10
	deadline := time.Now().Add(2 * time.Second)
	n, same := runtime.NumGoroutine(), 0
	for same < steadyPolls && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestIdleSessionIsOneGoroutine pins the concurrency model: a connection
// that has answered requests and is waiting for the next holds exactly one
// goroutine — no reader beside it, no watcher left over from a request.
func TestIdleSessionIsOneGoroutine(t *testing.T) {
	db := testDB(t, 2000)
	defer db.Close()
	before := steadyGoroutines()
	srv := startServer(t, db, server.Options{})
	const conns = 8
	for i := 0; i < conns; i++ {
		c := dial(t, srv)
		for j := 0; j < 3; j++ {
			if _, err := c.Query("SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 6"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The accept loop, and one goroutine per session.
	if n := settleGoroutines(before + 1 + conns); n != before+1+conns {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d idle sessions hold %d goroutines beside the accept loop, want %d\n%s",
			conns, n-before-1, conns, buf[:runtime.Stack(buf, true)])
	}
}

// TestRequestWrittenDuringQueryIsAnsweredNext writes two more requests
// while a stretched query runs — the watcher is parked in its Peek by then
// and sees their first byte — and requires all three answers, in order,
// the later two byte for byte: what the watcher peeked was not consumed.
func TestRequestWrittenDuringQueryIsAnsweredNext(t *testing.T) {
	db := testDB(t, 20000)
	defer db.Close()
	srv := startServer(t, db, server.Options{})
	const q = "SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 20000"
	want, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 50 * time.Millisecond}))
	defer restore()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.WriteMessage(conn, proto.Request{Op: proto.OpQuery, SQL: q}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // mid-scan, well past liveAfter
	for _, op := range []string{proto.OpCatalog, proto.OpPing} {
		if err := proto.WriteMessage(conn, proto.Request{Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	first, err := proto.ReadFrame(conn, proto.MaxFrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := proto.DecodeResponse(first); err != nil || !d.OK || d.Result == nil || d.Result.Count != want.Count {
		t.Fatalf("stretched query answered %s (%v), want count %d", first, err, want.Count)
	}
	for _, wantFrame := range []string{`{"ok":true,"tables":["data"]}`, `{"ok":true}`} {
		got, err := proto.ReadFrame(conn, proto.MaxFrameDefault)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != wantFrame {
			t.Fatalf("next answer is %s, want %s", got, wantFrame)
		}
	}
}

// TestCloseWhileWatcherParked drains the server while a query's watcher
// sits in its read: the poke that wakes it must not cancel the query, the
// query must answer, and neither session nor watcher may outlive Close.
func TestCloseWhileWatcherParked(t *testing.T) {
	db := testDB(t, 20000)
	defer db.Close()
	before := runtime.NumGoroutine()
	srv, err := server.Start(db, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 20000"
	want, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(11).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 50 * time.Millisecond}))
	defer restore()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.WriteMessage(conn, proto.Request{Op: proto.OpQuery, SQL: q}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the watcher is parked
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has returned, so the answer is already in the socket.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := proto.ReadFrame(conn, proto.MaxFrameDefault)
	if err != nil {
		t.Fatalf("in-flight query not answered across the drain: %v", err)
	}
	if d, err := proto.DecodeResponse(payload); err != nil || !d.OK || d.Result == nil || d.Result.Count != want.Count {
		t.Fatalf("drained query answered %s (%v), want count %d", payload, err, want.Count)
	}
	if _, err := proto.ReadFrame(conn, proto.MaxFrameDefault); err == nil {
		t.Fatal("session still answering after Close")
	}
	if n := settleGoroutines(before); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
	canceled := db.Metrics().Counter("adskip_queries_canceled_total",
		"Queries stopped by context cancellation.", obs.L("table", "data"))
	if canceled.Load() != 0 {
		t.Fatal("drain canceled the in-flight query")
	}
}

// TestDisconnectDuringShortQuery hangs up right behind requests that finish
// long before liveAfter, so no watcher ever starts: the session must notice
// at its next read, survive a response written to a dead peer, and give its
// slot back — with MaxConns = 1 the next connection is served only if it did.
func TestDisconnectDuringShortQuery(t *testing.T) {
	db := testDB(t, 2000)
	defer db.Close()
	srv := startServer(t, db, server.Options{MaxConns: 1})
	for i := 0; i < 40; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		req := proto.Request{Op: proto.OpQuery, SQL: "SELECT COUNT(*) FROM data WHERE v BETWEEN 0 AND 6"}
		if i%2 == 1 {
			req = proto.Request{Op: proto.OpPing}
		}
		if err := proto.WriteMessage(conn, req); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	c, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("slot not freed after disconnects during short queries: %v", err)
	}
}

// TestManyConnections drives the server from many clients at once, each
// sending a fixed number of requests, and checks what only concurrent load
// shows: every answer right with zero errors, the statement cache and the
// connection gauges, LRU eviction under load, the timing
// invariants on every response, and shard pruning behind the wire.
func TestManyConnections(t *testing.T) {
	const rows = 20000
	t.Run("plain", func(t *testing.T) {
		db := testDB(t, rows)
		defer db.Close()
		srv := startServer(t, db, server.Options{})
		qs, want := rangeTemplates(t, db, 64, rows)
		load{conns: 64, requests: 32, templates: qs, want: want}.run(t, srv)

		reg := db.Metrics()
		if reg.Counter("adskip_server_stmt_cache_hits_total", "").Load() == 0 {
			t.Error("no statement-cache hits under a skewed template mix")
		}
		// Every client has closed; each session exits once it reads EOF.
		// A session that never does hangs here until go test's -timeout.
		active := reg.Gauge("adskip_server_active_connections", "")
		for active.Load() != 0 {
			runtime.Gosched()
		}
		if n := reg.Counter("adskip_server_connections_total", "").Load(); n != 64 {
			t.Errorf("adskip_server_connections_total = %d, want 64", n)
		}
	})
	t.Run("eviction", func(t *testing.T) {
		db := testDB(t, rows)
		defer db.Close()
		srv := startServer(t, db, server.Options{StmtCacheSize: 8})
		qs, want := rangeTemplates(t, db, 32, rows)
		load{conns: 12, requests: 32, templates: qs, want: want}.run(t, srv)
		if db.Metrics().Counter("adskip_server_stmt_cache_evictions_total", "").Load() == 0 {
			t.Error("32 templates never evicted from an 8-entry statement cache")
		}
	})
	t.Run("timed", func(t *testing.T) {
		db := testDB(t, rows)
		defer db.Close()
		srv := startServer(t, db, server.Options{})
		qs, want := rangeTemplates(t, db, 64, rows)
		load{conns: 16, requests: 32, templates: qs, want: want, timing: true,
			check: func(res *proto.Result, rtt time.Duration) error {
				tm := res.Timing
				switch {
				case tm == nil:
					return errors.New("timing requested but response carried none")
				case tm.PhaseSumUS() > tm.TotalUS:
					return fmt.Errorf("phase sum %dus exceeds total %dus: %+v", tm.PhaseSumUS(), tm.TotalUS, tm)
				case time.Duration(tm.TotalUS)*time.Microsecond > rtt:
					// The server's interval lies inside the client's, so this
					// compares two nested measurements, not against a bound.
					return fmt.Errorf("server total %dus exceeds client round trip %v", tm.TotalUS, rtt)
				}
				return nil
			}}.run(t, srv)
	})
	t.Run("sharded", func(t *testing.T) {
		db := adskip.Open(adskip.Options{Policy: adskip.Adaptive, Shards: 4, ShardKey: "v"})
		defer db.Close()
		tbl, err := db.CreateTable("data", adskip.Col("v", adskip.Int64), adskip.Col("seq", adskip.Int64))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		batch := make([][]adskip.Value, rows)
		for i := range batch {
			batch[i] = []adskip.Value{adskip.IntValue(rng.Int63n(rows)), adskip.IntValue(int64(i))}
		}
		if err := tbl.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := tbl.EnableSkipping("v"); err != nil {
			t.Fatal(err)
		}
		srv := startServer(t, db, server.Options{})
		qs, want := rangeTemplates(t, db, 64, rows)
		pruned := db.Metrics().Counter("adskip_shard_pruned_total", "", obs.L("table", "data"))
		before := pruned.Load() // rangeTemplates' own queries prune too
		load{conns: 32, requests: 32, templates: qs, want: want}.run(t, srv)
		if pruned.Load() == before {
			t.Error("adskip_shard_pruned_total did not move under a 1%-range load on a 4-shard range table")
		}
	})
}

// load is a closed-loop client workload: conns clients at once, each
// sending requests queries drawn Zipf-skewed (s = 1.2) from templates
// with its own seed.
type load struct {
	conns, requests int
	templates       []string
	want            []int // each template's answer, checked on every response
	timing          bool  // ask for the server's latency breakdown
	// check, when set, sees every result beside its client-observed round trip.
	check func(res *proto.Result, rtt time.Duration) error
}

// rangeTemplates returns n COUNT(*) queries over 1%-wide ranges of v in
// [0, domain), and their answers on db.
func rangeTemplates(t *testing.T, db *adskip.DB, n int, domain int64) ([]string, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	width := domain / 100
	qs, want := make([]string, n), make([]int, n)
	for i := range qs {
		lo := rng.Int63n(domain - width)
		qs[i] = fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", lo, lo+width-1)
		res, err := db.Exec(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Count
	}
	return qs, want
}

// run dials every client before any sends, so all l.conns are open at
// once, then drives them to completion; each closes when it is done. An
// error or a wrong answer on any of them fails the test.
func (l load) run(t *testing.T, srv *server.Server) {
	t.Helper()
	clients := make([]*client.Client, l.conns)
	for i := range clients {
		c, err := client.Dial(srv.Addr().String(), client.Options{Timeout: 30 * time.Second, Timing: l.timing})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	errs := make([]error, l.conns)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			errs[i] = l.worker(c, rand.New(rand.NewSource(int64(i)+1)))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func (l load) worker(c *client.Client, rng *rand.Rand) error {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(l.templates)-1))
	for r := 0; r < l.requests; r++ {
		i := int(zipf.Uint64())
		start := time.Now()
		res, err := c.Query(l.templates[i])
		rtt := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", l.templates[i], err)
		}
		if res.Count != l.want[i] {
			return fmt.Errorf("%s: count %d, want %d", l.templates[i], res.Count, l.want[i])
		}
		if l.check != nil {
			if err := l.check(res, rtt); err != nil {
				return fmt.Errorf("%s: %w", l.templates[i], err)
			}
		}
	}
	return nil
}
