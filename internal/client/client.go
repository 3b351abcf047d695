// Package client is the Go client library for the adskip query server.
// A Client wraps one TCP connection speaking the internal/proto frame
// protocol. The protocol is strict request/response, so a Client
// serializes calls with a mutex; open several Clients for concurrency.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adskip/internal/proto"
)

// ServerError is a failure reported by the server, carrying the stable
// machine-readable kind (see proto.ErrKind*) alongside the message.
type ServerError struct {
	Kind string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("server: %s (%s)", e.Msg, e.Kind) }

// Retryable reports whether err is a server refusal that a later attempt
// can reasonably expect to succeed: an overloaded server
// (ErrKindUnavailable) and the WAL-replay gate (ErrKindRecovering). Both
// are pre-execution refusals — the server rejected the request before
// touching any data — so retrying a mutation cannot double-apply it.
// Transport errors are deliberately NOT retryable: a connection that
// died mid-request leaves the outcome unknown, and retrying an insert
// over a fresh connection could append the rows twice.
func Retryable(err error) bool {
	var se *ServerError
	if !errors.As(err, &se) {
		return false
	}
	return se.Kind == proto.ErrKindUnavailable || se.Kind == proto.ErrKindRecovering
}

// RetryPolicy configures automatic retry of retryable server refusals
// (see Retryable). The backoff is capped exponential with full jitter:
// attempt n sleeps uniform(0, min(Cap, Base<<n)), which spreads a
// thundering herd of clients waiting out the same recovery over the
// whole window instead of synchronizing their retries.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt. Zero
	// disables retry entirely (the default).
	Max int
	// Base is the backoff base (default 10ms when Max > 0).
	Base time.Duration
	// Cap bounds a single backoff sleep (default 1s).
	Cap time.Duration
}

// Options configures a Client.
type Options struct {
	// Timeout bounds each request round-trip (dial, write, read).
	// Zero means no deadline.
	Timeout time.Duration
	// MaxFrameBytes caps response frames (default proto.MaxFrameDefault).
	MaxFrameBytes int
	// Timing asks the server for a latency breakdown on every request;
	// results carry it in their Timing field. Servers that predate the
	// field ignore the ask and Timing stays nil — callers must tolerate
	// absence.
	Timing bool
	// Retry enables automatic retry of retryable refusals (overload,
	// WAL recovery) with jittered exponential backoff. The
	// zero policy never retries.
	Retry RetryPolicy
}

// Client is one connection to an adskip server. Methods are safe for
// concurrent use; they serialize on the connection.
type Client struct {
	opts Options

	closed atomic.Bool

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte // response payloads land here: DecodeResponse keeps none of it
}

// Dial connects to an adskip server.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.MaxFrameBytes <= 0 {
		opts.MaxFrameBytes = proto.MaxFrameDefault
	}
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		opts: opts,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}, nil
}

// Close closes the connection. A request in flight on another goroutine
// fails (and is canceled server-side by the disconnect). A backoff sleep
// in a retry loop is abandoned at its next attempt.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.conn.SetDeadline(time.Now()) // unblock a concurrent round-trip
	return c.conn.Close()
}

// roundTrip sends one request, retrying retryable refusals per the
// client's RetryPolicy with full-jitter capped exponential backoff.
func (c *Client) roundTrip(req proto.Request) (proto.Decoded, error) {
	resp, err := c.roundTripOnce(req)
	if err == nil || c.opts.Retry.Max <= 0 || !Retryable(err) {
		return resp, err
	}
	pol := c.opts.Retry
	if pol.Base <= 0 {
		pol.Base = 10 * time.Millisecond
	}
	if pol.Cap <= 0 {
		pol.Cap = time.Second
	}
	for attempt := 0; attempt < pol.Max; attempt++ {
		ceil := pol.Base << uint(attempt)
		if ceil > pol.Cap || ceil <= 0 {
			ceil = pol.Cap
		}
		time.Sleep(time.Duration(rand.Int63n(int64(ceil) + 1)))
		if c.closed.Load() {
			return resp, err
		}
		resp, err = c.roundTripOnce(req)
		if err == nil || !Retryable(err) {
			return resp, err
		}
	}
	return resp, err
}

// roundTripOnce sends one request and reads its response under the mutex.
func (c *Client) roundTripOnce(req proto.Request) (proto.Decoded, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := proto.WriteMessage(c.bw, req); err != nil {
		return proto.Decoded{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return proto.Decoded{}, err
	}
	payload, err := proto.ReadFrameInto(c.br, c.opts.MaxFrameBytes, &c.buf)
	if err != nil {
		return proto.Decoded{}, err
	}
	resp, err := proto.DecodeResponse(payload)
	if err != nil {
		return proto.Decoded{}, fmt.Errorf("client: bad response frame: %w", err)
	}
	if !resp.OK {
		return resp, &ServerError{Kind: resp.ErrKind, Msg: resp.Error}
	}
	return resp, nil
}

// Query executes SQL text and returns the decoded result.
func (c *Client) Query(sqlText string) (*proto.Result, error) {
	return c.QueryTraced(sqlText, "")
}

// QueryTraced executes SQL text tagged with a client-generated trace ID.
// The server stamps the query's trace with it, so the caller can
// find this exact execution in the server's /traces endpoint. An empty
// traceID degrades to a plain Query.
func (c *Client) QueryTraced(sqlText, traceID string) (*proto.Result, error) {
	resp, err := c.roundTrip(proto.Request{
		Op: proto.OpQuery, SQL: sqlText,
		TraceID: traceID, WantTiming: c.opts.Timing,
	})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, errors.New("client: response carries no result")
	}
	// The server's timing breakdown: nil when not requested or the server
	// predates it.
	resp.Result.Timing = resp.Timing
	return resp.Result, nil
}

// Insert appends rows to a table and returns the number of rows the
// server acknowledged. Cells may be int/int64, float64, string, or nil
// for NULL, matched positionally to the table schema. On a durable
// server a non-error return means the rows are fsynced to the WAL.
// With a RetryPolicy configured, refusals during WAL replay or
// overload are retried automatically — those gates reject before any
// append, so the retry cannot double-insert. A transport error leaves
// the outcome unknown and is never retried.
func (c *Client) Insert(table string, rows [][]any) (int, error) {
	wire := make([][]json.RawMessage, len(rows))
	for i, row := range rows {
		wire[i] = make([]json.RawMessage, len(row))
		for j, cell := range row {
			raw, err := json.Marshal(cell)
			if err != nil {
				return 0, fmt.Errorf("client: row %d cell %d: %w", i, j, err)
			}
			wire[i][j] = raw
		}
	}
	resp, err := c.roundTrip(proto.Request{Op: proto.OpInsert, Table: table, Rows: wire})
	if err != nil {
		return 0, err
	}
	return resp.Inserted, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(proto.Request{Op: proto.OpPing})
	return err
}

// Tables lists the server's tables (sorted).
func (c *Client) Tables() ([]string, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpCatalog})
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}
