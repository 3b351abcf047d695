package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/storage"
)

var testTypes = []storage.Type{storage.Int64, storage.Float64, storage.String}

// testRows builds n rows of the mixed-type test schema.
func testRows(base uint64, n int) [][]storage.Value {
	var rows [][]storage.Value
	for i := 0; i < n; i++ {
		rows = append(rows, []storage.Value{
			storage.IntValue(int64(base) + int64(i)),
			storage.FloatValue(float64(i) * 1.5),
			storage.StringValue(fmt.Sprintf("s-%d-%d", base, i)),
		})
	}
	return rows
}

// rowsRecord builds the append record of n rows of the mixed-type test
// schema, as an engine logs it.
func rowsRecord(table string, base uint64, n int) *Record {
	return columnsRecord(table, base, testTypes, testRows(base, n))
}

// columnsRecord builds the KindColumns record of rows: each column staged
// into a fresh column and encoded from the stage, as an engine does.
func columnsRecord(table string, base uint64, types []storage.Type, rows [][]storage.Value) *Record {
	rec := &Record{Kind: KindColumns, Table: table, BaseRow: base}
	for ci, typ := range types {
		c := storage.NewColumn(fmt.Sprint("c", ci), typ)
		var s storage.StagedRows
		if err := c.Stage(&s, rows, ci); err != nil {
			panic(err)
		}
		_, b := c.AppendBlock(nil, &s)
		rec.Blocks = append(rec.Blocks, b)
	}
	return rec
}

// TestRecordRoundTrip: every kind decodes to what was encoded — column
// blocks byte for byte, sharded or not; the old row-major kinds, which
// only a fixture writer still encodes, cell for cell.
func TestRecordRoundTrip(t *testing.T) {
	mixed := [][]storage.Value{
		{storage.NullValue(storage.Int64), storage.NullValue(storage.Float64), storage.NullValue(storage.String)},
		{storage.IntValue(-9e15), storage.FloatValue(-0.5), storage.StringValue("")},
		{storage.IntValue(7), storage.NullValue(storage.Float64), storage.StringValue("")},
	}
	sharded := columnsRecord("t", 3, testTypes, mixed)
	sharded.Shard = 2
	recs := []*Record{
		rowsRecord("data", 0, 1),
		rowsRecord("data", 17, 64),
		columnsRecord("t", 3, testTypes, mixed),
		sharded,
		{Kind: KindRows, Table: "t", BaseRow: 3, Types: testTypes, Rows: mixed},
		{Kind: KindRows, Table: "t", Shard: 4, BaseRow: 3, Types: testTypes, Rows: testRows(3, 9)},
		{Kind: KindUpdate, Table: "data", Col: "v", Row: 42, Value: storage.IntValue(7)},
		{Kind: KindUpdate, Table: "data", Col: "noise", Row: 0, Value: storage.FloatValue(-0.25)},
		{Kind: KindUpdate, Table: "d", Col: "s", Row: 1 << 40, Value: storage.StringValue("x")},
		{Kind: KindUpdate, Table: "d", Shard: 3, Col: "v", Row: 5, Value: storage.IntValue(-1)},
	}
	for i, rec := range recs {
		encode := EncodePayload
		if rec.Kind == KindRows {
			encode = encodeLegacyRows
		}
		payload, err := encode(rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := DecodePayload(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		assertRecordEqual(t, i, got, rec)
	}
}

func assertRecordEqual(t *testing.T, i int, got, want *Record) {
	t.Helper()
	if got.Kind != want.Kind || got.Table != want.Table || got.Shard != want.Shard || got.BaseRow != want.BaseRow ||
		got.Col != want.Col || got.Row != want.Row || got.NumRows() != want.NumRows() {
		t.Fatalf("record %d: header mismatch: got %+v want %+v", i, got, want)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("record %d: %d column blocks, want %d", i, len(got.Blocks), len(want.Blocks))
	}
	for ci := range want.Blocks {
		if !bytes.Equal(got.Blocks[ci].Bytes(), want.Blocks[ci].Bytes()) {
			t.Fatalf("record %d column %d: block differs", i, ci)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("record %d: %d rows, want %d", i, len(got.Rows), len(want.Rows))
	}
	for ri := range want.Rows {
		for ci := range want.Rows[ri] {
			g, w := got.Rows[ri][ci], want.Rows[ri][ci]
			if g.IsNull() != w.IsNull() || (!w.IsNull() && g != w) {
				t.Fatalf("record %d row %d col %d: got %v want %v", i, ri, ci, g, w)
			}
		}
	}
	if want.Kind == KindUpdate && got.Value != want.Value {
		t.Fatalf("record %d: value %v, want %v", i, got.Value, want.Value)
	}
}

func TestEncodeRejects(t *testing.T) {
	short := rowsRecord("data", 0, 3)
	short.Blocks[1] = rowsRecord("data", 0, 2).Blocks[1]
	cases := []struct {
		name string
		rec  *Record
	}{
		{"unknown kind", &Record{Kind: 99}},
		{"old row-major kind", &Record{Kind: KindRows, Types: testTypes, Rows: testRows(0, 1)}},
		{"no columns", &Record{Kind: KindColumns}},
		{"no rows", &Record{Kind: KindColumns, Blocks: []storage.Block{{}}}},
		{"ragged columns", short},
		{"null update", &Record{Kind: KindUpdate, Table: "t", Col: "c",
			Value: storage.NullValue(storage.Int64)}},
	}
	for _, tc := range cases {
		if _, err := EncodePayload(tc.rec); err == nil {
			t.Errorf("%s: encode accepted", tc.name)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	// The fixed part of the record below: kind, shard, table, base row, row
	// count, column count; its first column block starts there.
	const recordHead = 1 + 4 + 2 + len("data") + 8 + 4 + 2
	valid, err := EncodePayload(rowsRecord("data", 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func([]byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return fn(b)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown kind", mutate(func(b []byte) []byte { b[0] = 99; return b })},
		{"truncated", mutate(func(b []byte) []byte { return b[:len(b)/2] })},
		{"trailing bytes", mutate(func(b []byte) []byte { return append(b, 0xFF) })},
		{"shard-update with shard 0", []byte{byte(KindShardUpdate), 0, 0, 0, 0}},
		{"block of another width", mutate(func(b []byte) []byte { b[recordHead+1] = 8; return b })},
		{"NULL list past the rows", mutate(func(b []byte) []byte { b[recordHead+2] = 9; return b })},
	}
	for _, tc := range cases {
		if _, err := DecodePayload(tc.payload); err == nil {
			t.Errorf("%s: decode accepted", tc.name)
		}
	}
}

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options, replay func(*Record) error) (*Log, RecoveryStats) {
	t.Helper()
	opts.Dir = dir
	l, stats, err := Open(opts, replay)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, stats := openT(t, dir, Options{}, nil)
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("fresh dir recovered %+v", stats)
	}
	var want []*Record
	base := uint64(0)
	for i := 0; i < 10; i++ {
		rec := rowsRecord("data", base, 4)
		base += 4
		want = append(want, rec)
		c, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.LSN(); got != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, got)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	upd := &Record{Kind: KindUpdate, Table: "data", Col: "v", Row: 3, Value: storage.IntValue(-1)}
	want = append(want, upd)
	if c, err := l.Append(upd); err != nil || c.Wait() != nil {
		t.Fatalf("append update: %v", err)
	}
	if got := l.SyncedLSN(); got != 11 {
		t.Fatalf("SyncedLSN = %d, want 11", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*Record
	l2, stats := openT(t, dir, Options{}, func(rec *Record) error {
		got = append(got, rec)
		return nil
	})
	defer l2.Close()
	if stats.Records != 11 || stats.Rows != 40 || stats.Updates != 1 || stats.TornTail {
		t.Fatalf("recovery stats %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		assertRecordEqual(t, i, got[i], want[i])
	}
	// The reopened log continues the LSN sequence.
	c, err := l2.Append(rowsRecord("data", base, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.LSN() != 12 {
		t.Fatalf("post-recovery LSN = %d, want 12", c.LSN())
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitConcurrent hammers the log from many goroutines (run
// under -race in CI) and checks every commit becomes durable, LSNs are
// dense, and the committer actually grouped: far fewer fsyncs than
// appends.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{}, nil)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	seen := make([]bool, writers*perWriter+1)
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c, err := l.Append(rowsRecord("data", uint64(w*perWriter+i), 2))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := c.Wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				mu.Lock()
				if c.LSN() == 0 || int(c.LSN()) >= len(seen) || seen[c.LSN()] {
					t.Errorf("bad or duplicate LSN %d", c.LSN())
				} else {
					seen[c.LSN()] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if got := l.SyncedLSN(); got != writers*perWriter {
		t.Fatalf("SyncedLSN = %d, want %d", got, writers*perWriter)
	}
	st := l.Status()
	if st.PendingRecords != 0 || st.Failed {
		t.Fatalf("status after drain: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything survives a replay.
	var n int
	l2, stats := openT(t, dir, Options{}, func(*Record) error { n++; return nil })
	defer l2.Close()
	if uint64(n) != stats.Records || n != writers*perWriter {
		t.Fatalf("replayed %d records (stats %d), want %d", n, stats.Records, writers*perWriter)
	}
}

// TestSyncErrorSticky: an injected fsync failure must fail the waiting
// commit and poison the log — no later append may succeed, because rows
// already applied in memory are no longer covered by the disk state.
func TestSyncErrorSticky(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{}, nil)
	defer l.Close()
	defer faultinject.Activate(faultinject.New(1).
		Set(faultinject.WALSyncErr, faultinject.Rule{Limit: 1}))()
	c, err := l.Append(rowsRecord("data", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("commit error = %v, want injected", err)
	}
	if _, err := l.Append(rowsRecord("data", 1, 1)); err == nil {
		t.Fatal("append succeeded on a failed log")
	}
	if st := l.Status(); !st.Failed {
		t.Fatalf("status not failed: %+v", st)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded on a failed log")
	}
}

// TestRotationRecycleCompact drives the log across many tiny segments,
// compacts, and verifies recycled files are reused by later rotations
// instead of growing the directory without bound.
func TestRotationRecycleCompact(t *testing.T) {
	dir := t.TempDir()
	// Minimum segment size (4 KiB) with ~1 KiB records forces rotation
	// every few appends.
	l, _ := openT(t, dir, Options{SegmentBytes: 1, GroupWindow: -1}, nil)
	var lastLSN uint64
	for i := 0; i < 40; i++ {
		c, err := l.Append(rowsRecord("data", uint64(i*8), 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		lastLSN = c.LSN()
	}
	st := l.Status()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, got %+v", st)
	}
	n, err := l.Compact(lastLSN)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Segments-1 {
		t.Fatalf("Compact recycled %d of %d segments", n, st.Segments)
	}
	st = l.Status()
	if st.Segments != 1 || st.Spares != n {
		t.Fatalf("post-compact status %+v", st)
	}
	// New appends rotate onto the spares: the spare pool shrinks.
	for i := 0; i < 40; i++ {
		c, err := l.Append(rowsRecord("data", uint64(320+i*8), 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st2 := l.Status()
	if st2.Spares >= st.Spares {
		t.Fatalf("rotation did not consume spares: %+v -> %+v", st, st2)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay sees only the uncompacted suffix (the second 40 appends plus
	// whatever shared the active segment at compact time) — never the
	// recycled records, never duplicates.
	var rows int64
	l2, stats := openT(t, dir, Options{SegmentBytes: 1}, func(rec *Record) error {
		rows += int64(rec.NumRows())
		return nil
	})
	defer l2.Close()
	if stats.Records < 40 || stats.Records >= 80 {
		t.Fatalf("replay after compact: %+v, want the uncompacted suffix of 80 records", stats)
	}
	if rows != int64(stats.Records)*8 {
		t.Fatalf("replayed %d rows across %d records, want 8 per record", rows, stats.Records)
	}
}

// TestLSNStableAcrossRestartAndCompact: segment headers record a base
// LSN, so numbering survives compaction plus restart — a throughLSN
// captured before the restart still names the same records after, and
// the reopened log continues the absolute sequence instead of
// renumbering the surviving suffix from 1.
func TestLSNStableAcrossRestartAndCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 1, GroupWindow: -1}, nil)
	var lastLSN uint64
	for i := 0; i < 40; i++ {
		c, err := l.Append(rowsRecord("data", uint64(i*8), 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		lastLSN = c.LSN()
	}
	if lastLSN != 40 {
		t.Fatalf("last LSN = %d, want 40", lastLSN)
	}
	if n, err := l.Compact(20); err != nil || n == 0 {
		t.Fatalf("Compact recycled %d segments (err %v)", n, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var replayed uint64
	l2, stats := openT(t, dir, Options{SegmentBytes: 1}, func(*Record) error { replayed++; return nil })
	defer l2.Close()
	if stats.Records != replayed {
		t.Fatalf("stats.Records = %d, callback saw %d", stats.Records, replayed)
	}
	if got := l2.SyncedLSN(); got != 40 {
		t.Fatalf("SyncedLSN after restart = %d, want 40 (stable numbering)", got)
	}
	c, err := l2.Append(rowsRecord("data", 320, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.LSN() != 41 {
		t.Fatalf("post-restart LSN = %d, want 41", c.LSN())
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBaseLSNMismatchStopsReplay: a hole in the segment chain (here a
// deleted middle segment) must stop replay at the hole — the next
// segment's base LSN disagrees with the running count — rather than
// silently renumbering the records after it.
func TestBaseLSNMismatchStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 1, GroupWindow: -1}, nil)
	for i := 0; i < 40; i++ {
		c, err := l.Append(rowsRecord("data", uint64(i*8), 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	nsegs := l.Status().Segments
	if nsegs < 3 {
		t.Fatalf("need >=3 segments, got %d", nsegs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segPath(dir, 2)); err != nil {
		t.Fatal(err)
	}

	var n uint64
	l2, stats := openT(t, dir, Options{SegmentBytes: 1}, func(*Record) error { n++; return nil })
	defer l2.Close()
	if n == 0 || n >= 40 {
		t.Fatalf("replayed %d records, want only the prefix before the hole", n)
	}
	if !strings.Contains(stats.Truncated, "base LSN") {
		t.Fatalf("Truncated = %q, want base LSN mismatch", stats.Truncated)
	}
	// Everything at and past the hole is dropped, and the log continues
	// the absolute LSN sequence from the intact prefix.
	c, err := l2.Append(rowsRecord("data", uint64(n*8), 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.LSN() != n+1 {
		t.Fatalf("post-recovery LSN = %d, want %d", c.LSN(), n+1)
	}
}

// TestSyncBarrier: Sync must not return until records enqueued before it
// are durable, even when the group window would otherwise keep them
// pending (and even if the committer has already claimed the batch).
func TestSyncBarrier(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{GroupWindow: time.Second}, nil)
	defer l.Close()
	for round := uint64(1); round <= 3; round++ {
		for j := 0; j < 4; j++ {
			if _, err := l.Append(rowsRecord("data", (round-1)*4+uint64(j), 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := l.SyncedLSN(); got != round*4 {
			t.Fatalf("round %d: SyncedLSN = %d, want %d", round, got, round*4)
		}
	}
}

// TestLagGauge: adskip_wal_lag_us is read from the log when the registry
// is scraped — the age of the oldest record still waiting out the group
// window, and 0 once Sync has made everything durable.
func TestLagGauge(t *testing.T) {
	reg := obs.NewRegistry()
	l, _ := openT(t, t.TempDir(), Options{GroupWindow: 200 * time.Millisecond, Metrics: reg}, nil)
	defer l.Close()
	lag := func() int64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "adskip_wal_lag_us "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no adskip_wal_lag_us series:\n%s", sb.String())
		return 0
	}
	if got := lag(); got != 0 {
		t.Fatalf("lag before any append = %d us, want 0", got)
	}
	if _, err := l.Append(rowsRecord("data", 0, 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if got := lag(); got < 2000 {
		t.Fatalf("lag with a record pending 2ms = %d us, want >= 2000", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := lag(); got != 0 {
		t.Fatalf("lag after Sync = %d us, want 0", got)
	}
}

// TestCloseFlushes: appends not yet waited on still reach disk when Close
// drains the committer.
func TestCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{GroupWindow: time.Second}, nil)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(rowsRecord("data", uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	l2, _ := openT(t, dir, Options{}, func(*Record) error { n++; return nil })
	defer l2.Close()
	if n != 5 {
		t.Fatalf("replayed %d records after Close, want 5", n)
	}
}

// TestReplayCallbackErrorAborts: a replay error must abort Open — the
// caller's state is unknown, so the log must not accept appends.
func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{}, nil)
	c, err := l.Append(rowsRecord("data", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := Open(Options{Dir: dir}, func(*Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Open error = %v, want wrapped boom", err)
	}
}

// TestSpareFilesIgnoredByReplay: spare files, whatever bytes they held
// before truncation, never contribute records — they are reused as blank
// segments (the first rotation here consumes the spare immediately).
func TestSpareFilesIgnoredByReplay(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "spare-00000009.wal"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats := openT(t, dir, Options{}, func(*Record) error {
		t.Fatal("replayed a record from a spare")
		return nil
	})
	defer l.Close()
	if stats.Records != 0 {
		t.Fatalf("stats %+v", stats)
	}
	st := l.Status()
	if st.Segments != 1 || st.Spares != 0 {
		t.Fatalf("spare not recycled into the active segment: %+v", st)
	}
	// The junk the spare held must be gone: appends land on a clean header.
	c, err := l.Append(rowsRecord("data", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRefusesClaimsBeforeAllocating: a record's row and column
// counts are checked against the bytes that follow before anything is
// allocated for them. A 4,114-byte old-format payload that claims 4,096
// columns of 4,096 rows (640 MB of cells) and a column-block record that
// claims 4,096 columns of 2^24 rows are both errors, each for under 1 MB.
func TestDecodeRefusesClaimsBeforeAllocating(t *testing.T) {
	rows := []byte{byte(KindRows), 0, 0}             // kind, empty table name
	rows = binary.LittleEndian.AppendUint64(rows, 0) // base row
	rows = binary.LittleEndian.AppendUint16(rows, 4096)
	rows = binary.LittleEndian.AppendUint32(rows, 4096)
	rows = append(rows, make([]byte, 4114-len(rows))...)

	cols := []byte{byte(KindColumns), 0, 0, 0, 0, 0, 0}
	cols = binary.LittleEndian.AppendUint64(cols, 0)
	cols = binary.LittleEndian.AppendUint32(cols, 1<<24)
	cols = binary.LittleEndian.AppendUint16(cols, 4096)
	cols = append(cols, make([]byte, 4096)...)

	for name, payload := range map[string][]byte{"rows": rows, "columns": cols} {
		var err error
		if n := allocatedBy(func() { _, err = DecodePayload(payload) }); err == nil || n >= 1<<20 {
			t.Errorf("%s: %d-byte payload: %d bytes allocated, err %v", name, len(payload), n, err)
		}
	}
}
