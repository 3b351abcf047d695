package wal

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adskip/internal/faultinject"
	"adskip/internal/obs"
)

// Options configures a Log.
type Options struct {
	// Dir is the segment directory (created if missing). Required.
	Dir string
	// GroupWindow bounds how long an append may linger unsynced waiting
	// for companions to share its fsync. Larger windows amortize fsync
	// over more writers at the cost of commit latency. Default 2ms;
	// negative means sync each batch immediately (no linger).
	GroupWindow time.Duration
	// SegmentBytes is the rotation threshold (soft: a batch never splits
	// across segments). Default 64 MiB, minimum 4 KiB.
	SegmentBytes int64
	// NoSync skips fsync (group commit still batches writes). For
	// benchmarks isolating fsync cost; provides no crash durability.
	NoSync bool
	// MaxRecordBytes bounds one record payload on both encode and replay.
	// Default DefaultMaxRecordBytes.
	MaxRecordBytes int
	// Metrics receives adskip_wal_* series; nil uses a private registry.
	Metrics *obs.Registry
	// Logger receives recovery and failure events; nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.GroupWindow == 0 {
		o.GroupWindow = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentBytes < 4<<10 {
		o.SegmentBytes = 4 << 10
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
	return o
}

// segInfo tracks one on-disk segment: its index, path, and the LSN of the
// last record written to it (0 while it has none). Sealed segments whose
// lastLSN falls at or below a Compact horizon become spares.
type segInfo struct {
	index   uint64
	path    string
	lastLSN uint64
	bytes   int64
}

// Commit is a group-commit ticket: Wait blocks until the record it was
// issued for (and everything enqueued before it) is durable, or the log
// has failed.
type Commit struct {
	b   *batch
	lsn uint64
}

// LSN returns the record's log sequence number (1-based).
func (c Commit) LSN() uint64 { return c.lsn }

// Wait blocks until the commit is durable and returns the sync error, if
// any. A zero Commit (no WAL armed) returns nil immediately.
func (c Commit) Wait() error {
	if c.b == nil {
		return nil
	}
	<-c.b.done
	return c.b.err
}

// batch is one group of records that will share an fsync.
type batch struct {
	done chan struct{}
	err  error
}

// Log is a group-commit write-ahead log over rotating segment files.
//
// Appenders encode under their own lock domain, enqueue under a short
// mutex hold, and block on the returned Commit outside any lock; a single
// background committer drains the queue, so any number of concurrent
// writers cost one fsync per group window.
type Log struct {
	opts Options

	mu        sync.Mutex
	f         *os.File
	segs      []segInfo // index order; last is the active segment
	spares    []string  // recycled segment files awaiting reuse
	segOff    int64     // bytes in the active segment (including header)
	pending   []byte    // framed records awaiting write+sync
	pendRecs  int
	pendRows  int64
	firstPend time.Time // when the oldest pending record was enqueued
	cur       *batch
	inflight  *batch // last batch claimed by flush; may not be durable yet
	nextLSN   uint64 // LSN the next append receives
	written   uint64 // last LSN written to the file
	failed    error  // sticky: a sync failure poisons the log
	closed    bool

	synced atomic.Uint64 // last durable LSN

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	m logMetrics
}

type logMetrics struct {
	appends    *obs.Counter
	rows       *obs.Counter
	bytes      *obs.Counter
	syncs      *obs.Counter
	syncErrors *obs.Counter
	rotations  *obs.Counter
	recycled   *obs.Counter
	pendBytes  *obs.Gauge
	commitSec  *obs.Histogram
}

func newLogMetrics(reg *obs.Registry) logMetrics {
	return logMetrics{
		appends:    reg.Counter("adskip_wal_appends_total", "WAL records appended."),
		rows:       reg.Counter("adskip_wal_rows_total", "Rows carried by appended WAL records."),
		bytes:      reg.Counter("adskip_wal_bytes_total", "Framed bytes appended to the WAL."),
		syncs:      reg.Counter("adskip_wal_syncs_total", "Group-commit fsync batches."),
		syncErrors: reg.Counter("adskip_wal_sync_errors_total", "Failed WAL write/fsync batches."),
		rotations:  reg.Counter("adskip_wal_rotations_total", "Segment rotations."),
		recycled:   reg.Counter("adskip_wal_recycled_total", "Sealed segments recycled for reuse."),
		pendBytes:  reg.Gauge("adskip_wal_pending_bytes", "Framed bytes enqueued but not yet durable."),
		commitSec: reg.Histogram("adskip_wal_commit_seconds", "Group-commit batch durability latency.",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}),
	}
}

// Append encodes rec, assigns it the next LSN, and hands it to the group
// committer. The returned Commit's Wait blocks until the record is
// durable; callers that mutate in-memory state after logging must wait
// before acknowledging. Safe for concurrent use.
func (l *Log) Append(rec *Record) (Commit, error) {
	rows := rec.NumRows()

	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return Commit{}, fmt.Errorf("wal: log failed: %w", err)
	}
	if l.closed {
		l.mu.Unlock()
		return Commit{}, fmt.Errorf("wal: log closed")
	}
	// The record is encoded straight into the pending buffer; one that
	// fails is simply not kept.
	pending, err := AppendRecord(l.pending, rec)
	framed := len(pending) - len(l.pending)
	if err == nil && framed-frameLen > l.opts.MaxRecordBytes {
		err = fmt.Errorf("wal: record payload %d bytes exceeds limit %d", framed-frameLen, l.opts.MaxRecordBytes)
	}
	if err != nil {
		l.mu.Unlock()
		return Commit{}, err
	}
	l.pending = pending
	lsn := l.nextLSN
	l.nextLSN++
	if l.pendRecs == 0 {
		l.firstPend = time.Now()
	}
	l.pendRecs++
	l.pendRows += int64(rows)
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	c := Commit{b: l.cur, lsn: lsn}
	pendBytes := len(l.pending)
	l.mu.Unlock()

	l.m.appends.Inc()
	l.m.rows.Add(int64(rows))
	l.m.bytes.Add(int64(framed))
	l.m.pendBytes.Set(int64(pendBytes))
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return c, nil
}

// Sync forces everything enqueued so far to disk and waits. It is a true
// durability barrier: a batch the committer has already claimed but not
// yet fsynced (flush clears l.cur before writing) is waited on too.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	cur, inflight := l.cur, l.inflight
	l.mu.Unlock()
	if cur != nil {
		// The committer is single-threaded, so the open batch completing
		// implies every earlier claimed batch completed first.
		select {
		case l.kick <- struct{}{}:
		default:
		}
		return Commit{b: cur}.Wait()
	}
	if inflight != nil {
		return Commit{b: inflight}.Wait()
	}
	return nil
}

// SyncedLSN returns the last durable LSN.
func (l *Log) SyncedLSN() uint64 { return l.synced.Load() }

// Lag returns how long the oldest unsynced record has been waiting
// (zero when everything enqueued is durable).
func (l *Log) Lag() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pendRecs == 0 {
		return 0
	}
	return time.Since(l.firstPend)
}

// Status is a point-in-time view of the log, for health and tests.
type Status struct {
	NextLSN        uint64        `json:"next_lsn"`
	SyncedLSN      uint64        `json:"synced_lsn"`
	Segments       int           `json:"segments"`
	SegmentIndex   uint64        `json:"segment_index"`
	SegmentBytes   int64         `json:"segment_bytes"`
	PendingBytes   int           `json:"pending_bytes"`
	PendingRecords int           `json:"pending_records"`
	Spares         int           `json:"spares"`
	Lag            time.Duration `json:"lag_ns"`
	Failed         bool          `json:"failed"`
}

// Status reports the log's current state.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		NextLSN:        l.nextLSN,
		SyncedLSN:      l.synced.Load(),
		Segments:       len(l.segs),
		SegmentBytes:   l.segOff,
		PendingBytes:   len(l.pending),
		PendingRecords: l.pendRecs,
		Spares:         len(l.spares),
		Failed:         l.failed != nil,
	}
	if len(l.segs) > 0 {
		st.SegmentIndex = l.segs[len(l.segs)-1].index
	}
	if l.pendRecs > 0 {
		st.Lag = time.Since(l.firstPend)
	}
	return st
}

// Compact recycles sealed segments whose every record has LSN <=
// throughLSN: the caller asserts those records are captured elsewhere
// (e.g. a table snapshot), so replay no longer needs them. Recycled files
// are truncated and parked on a spare list that rotation reuses, keeping
// steady-state disk usage and file churn bounded. LSNs are stable across
// restarts (each segment header records its base LSN), so a horizon
// captured before a crash still names the same records after recovery.
// Returns how many segments were recycled.
func (l *Log) Compact(throughLSN uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	var ferr error
	for len(l.segs) > 1 { // never recycle the active segment
		s := l.segs[0]
		if s.lastLSN == 0 || s.lastLSN > throughLSN {
			break
		}
		// Rename before truncating: rename is atomic, so no crash point
		// leaves an empty file under a numbered segment name — which the
		// next Open would read as mid-log corruption and discard every
		// record after it. Stale bytes in the spare are harmless; rotation
		// O_TRUNCs spares on reuse, and the truncate here just returns the
		// disk space early.
		spare := filepath.Join(l.opts.Dir, fmt.Sprintf("spare-%08d.wal", s.index))
		if ferr = os.Rename(s.path, spare); ferr != nil {
			break
		}
		l.segs = l.segs[1:]
		l.spares = append(l.spares, spare)
		n++
		if ferr = os.Truncate(spare, 0); ferr != nil {
			break
		}
	}
	if n > 0 {
		// Make the renames durable before reporting the segments recycled;
		// a throughLSN horizon implies the caller may now drop whatever
		// else covered these records.
		if serr := syncDir(l.opts.Dir); serr != nil && ferr == nil {
			ferr = serr
		}
		l.m.recycled.Add(int64(n))
		if l.opts.Logger != nil {
			l.opts.Logger.Info("wal segments recycled", "count", n, "through_lsn", throughLSN)
		}
	}
	return n, ferr
}

// Close flushes pending records, fsyncs, and releases the committer
// goroutine and file handle. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	if l.failed != nil {
		return l.failed
	}
	return err
}

// run is the group committer: it wakes on the first append of a batch,
// lingers up to GroupWindow so concurrent writers pile on, then writes
// and fsyncs the whole batch at once.
func (l *Log) run() {
	defer l.wg.Done()
	for {
		select {
		case <-l.quit:
			l.flush() // final drain so Close loses nothing
			return
		case <-l.kick:
		}
		if w := l.opts.GroupWindow; w > 0 {
			l.mu.Lock()
			first, n := l.firstPend, len(l.pending)
			l.mu.Unlock()
			if n > 0 && int64(n) < flushBytes {
				if d := w - time.Since(first); d > 0 {
					select {
					case <-time.After(d):
					case <-l.quit:
						l.flush()
						return
					}
				}
			}
		}
		l.flush()
	}
}

// flush writes and fsyncs the current pending batch, rotating segments
// first when the active one is over threshold. Only the committer
// goroutine calls it (plus the final drain), so file writes are
// single-threaded by construction.
func (l *Log) flush() {
	l.mu.Lock()
	buf, c := l.pending, l.cur
	recs, rows := l.pendRecs, l.pendRows
	batchLSN := l.written + uint64(recs)
	first := l.firstPend
	l.pending = nil
	l.cur = nil
	l.pendRecs = 0
	l.pendRows = 0
	if c != nil {
		l.inflight = c
	}
	if l.failed != nil {
		// A batch enqueued while a previous flush was failing must not be
		// written: bytes before it may be lost, and a later successful
		// fsync would acknowledge records sitting past the hole. Drain it
		// with the sticky error instead.
		err := l.failed
		l.mu.Unlock()
		l.m.pendBytes.Set(0)
		l.finish(c, err, first, recs, rows)
		return
	}
	if len(buf) > 0 && l.segOff > segHeaderLen && l.segOff+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			l.mu.Unlock()
			l.finish(c, err, first, recs, rows)
			return
		}
	}
	f := l.f
	l.mu.Unlock()
	if len(buf) == 0 {
		l.finish(c, nil, first, 0, 0)
		return
	}

	faultinject.Crash(faultinject.CrashWALBeforeWrite)
	if faultinject.Fire(faultinject.CrashWALTornWrite) {
		// Land all but the last few bytes of the batch on disk, then die.
		// A complete frame is at least frameLen bytes, so stopping 7 bytes
		// short always leaves the final record torn; recovery must truncate
		// it without losing the records before it.
		cut := len(buf) - 7
		if cut < 0 {
			cut = 0
		}
		_, _ = f.Write(buf[:cut])
		_ = f.Sync()
		faultinject.Kill()
	}
	_, err := f.Write(buf)
	faultinject.Crash(faultinject.CrashWALAfterWrite)
	if err == nil && !l.opts.NoSync {
		err = f.Sync()
	}
	if err == nil && faultinject.Fire(faultinject.WALSyncErr) {
		err = fmt.Errorf("wal: fsync: %w", faultinject.ErrInjected)
	}
	faultinject.Crash(faultinject.CrashWALAfterSync)

	l.mu.Lock()
	if err != nil {
		l.failLocked(err)
	} else {
		l.written = batchLSN
		l.segOff += int64(len(buf))
		if len(l.segs) > 0 {
			l.segs[len(l.segs)-1].lastLSN = batchLSN
			l.segs[len(l.segs)-1].bytes = l.segOff
		}
		l.synced.Store(batchLSN)
	}
	pendBytes := len(l.pending)
	l.mu.Unlock()
	l.m.pendBytes.Set(int64(pendBytes))
	l.finish(c, err, first, recs, rows)
}

// finish completes a batch's ticket and records commit metrics.
func (l *Log) finish(c *batch, err error, first time.Time, recs int, rows int64) {
	if recs > 0 {
		if err != nil {
			l.m.syncErrors.Inc()
		} else {
			l.m.syncs.Inc()
			l.m.commitSec.Observe(time.Since(first).Seconds())
		}
	}
	if c != nil {
		c.err = err
		close(c.done)
	}
}

// failLocked poisons the log. Caller holds l.mu.
func (l *Log) failLocked(err error) {
	if l.failed == nil {
		l.failed = err
		if l.opts.Logger != nil {
			l.opts.Logger.Error("wal failed; durability lost until restart", "err", err)
		}
	}
}

// rotateLocked seals the active segment and opens the next one, reusing a
// spare file when available. Caller holds l.mu; only the committer
// rotates, and always before writing a batch, so sealed segments end on
// record boundaries.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if !l.opts.NoSync {
			if err := l.f.Sync(); err != nil {
				return err
			}
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	next := uint64(1)
	if len(l.segs) > 0 {
		next = l.segs[len(l.segs)-1].index + 1
	}
	path := segPath(l.opts.Dir, next)
	recycled := false
	if n := len(l.spares); n > 0 {
		spare := l.spares[n-1]
		l.spares = l.spares[:n-1]
		if err := os.Rename(spare, path); err != nil {
			return err
		}
		recycled = true
	}
	// The new segment's base LSN is the last record written before it;
	// rotation happens before a batch's write, so that is l.written.
	f, err := createSegment(path, next, l.written)
	if err != nil {
		return err
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segOff = segHeaderLen
	l.segs = append(l.segs, segInfo{index: next, path: path, bytes: segHeaderLen})
	l.m.rotations.Inc()
	if recycled {
		if l.opts.Logger != nil {
			l.opts.Logger.Debug("wal segment rotated onto recycled file", "index", next)
		}
	}
	return nil
}
