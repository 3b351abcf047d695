package adskip

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/table"
	"adskip/internal/wal"
)

// walRows returns rows [lo, lo+n) of the table walTable creates: a key and
// a value, every seventh value NULL.
func walRows(lo, n int) [][]Value {
	rows := make([][]Value, n)
	for i := range rows {
		k := lo + i
		rows[i] = []Value{IntValue(int64(k)), FloatValue(float64(k) / 2)}
		if k%7 == 0 {
			rows[i][1] = NullValue(Float64)
		}
	}
	return rows
}

func walTable(t *testing.T, db *DB) *Table {
	t.Helper()
	tab, err := db.CreateTable("t", Col("k", Int64), Col("v", Float64))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// seedWAL logs rows [0, n) of the table as an engine logs its appends, in
// segments that rotate at the smallest size a log allows: the facade's
// log rotates at 64 MiB, so this is how a test gets a durable DB to open a
// log of several segments.
func seedWAL(t *testing.T, dir string, n int) {
	t.Helper()
	tbl, err := table.New("t", table.Schema{{Name: "k", Type: Int64}, {Name: "v", Type: Float64}})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1, GroupWindow: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(tbl, engine.Options{})
	eng.SetWAL(l)
	for lo := 0; lo < n; lo += 100 {
		if err := eng.AppendRows(walRows(lo, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactWALThroughFacade drives the facade's WAL admin path: a
// durable DB appends, syncs its log and saves a snapshot, compacts the log
// through the snapshot's horizon, appends more and closes; reopened from
// the snapshot plus the log's replay, it holds the same rows as a twin
// that never compacted, from fewer segment files.
func TestCompactWALThroughFacade(t *testing.T) {
	var rows [2][][]Value
	var files [2]int
	for twin, compact := range []bool{true, false} {
		dir := t.TempDir()
		seedWAL(t, dir, 2000)
		db := Open(Options{Policy: Adaptive, Durability: Durability{Dir: dir}})
		tab := walTable(t, db)
		if _, err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		if err := tab.AppendBatch(walRows(2000, 500)); err != nil {
			t.Fatal(err)
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := db.SaveTable("t", &snap); err != nil {
			t.Fatal(err)
		}
		before, ok := db.WALStatus()
		if !ok || before.Segments < 3 || before.SyncedLSN == 0 {
			t.Fatalf("status before compaction %+v (armed %v), want several segments", before, ok)
		}
		if compact {
			n, err := db.CompactWAL(before.SyncedLSN)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := db.WALStatus()
			if n != before.Segments-1 || after.Segments != 1 {
				t.Fatalf("CompactWAL deleted %d segments: %d before, %d after", n, before.Segments, after.Segments)
			}
		}
		if err := tab.AppendBatch(walRows(2500, 300)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db = Open(Options{Policy: Adaptive, Durability: Durability{Dir: dir}})
		if _, err := db.LoadTable(&snap); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		res, err := db.Exec("SELECT k, v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2800 {
			t.Fatalf("compact=%v: %d rows after recovery, want 2800", compact, len(res.Rows))
		}
		rows[twin] = res.Rows
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		files[twin] = len(segs)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatal("the compacted DB recovered other rows than its twin")
	}
	if files[0] >= files[1] {
		t.Fatalf("%d segment files after compaction, %d in the twin that never compacted", files[0], files[1])
	}
}

// TestRecoverRefusesRetiredRecord: a log whose first segment ends in a
// whole record of a retired kind — the in-place update older releases
// logged (kind 2), or its sharded form (kind 4) — with a column-block
// record in the segment after it fails DB.Recover with an error naming
// the kind, and leaves every segment byte for byte as it was: it is not a
// torn tail, and the acknowledged rows after it are not dropped.
func TestRecoverRefusesRetiredRecord(t *testing.T) {
	// An update of t.k's row 3 to 9: kind, [shard,] table, column, row,
	// value type, value.
	update := []byte{2, 1, 0, 't', 1, 0, 'k', 3, 0, 0, 0, 0, 0, 0, 0, byte(Int64), 9, 0, 0, 0, 0, 0, 0, 0}
	sharded := append([]byte{4, 2, 0, 0, 0}, update[1:]...)
	for kind, payload := range map[string][]byte{"kind 2": update, "kind 4": sharded} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			seedWAL(t, dir, 2000)
			segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
			if err != nil || len(segs) < 2 {
				t.Fatalf("%d segments (%v), want 2 or more", len(segs), err)
			}
			first, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segs[0], wal.AppendFrame(first, payload), 0o644); err != nil {
				t.Fatal(err)
			}
			before := readSegments(t, segs)

			db := Open(Options{Durability: Durability{Dir: dir}})
			defer db.Close()
			walTable(t, db)
			_, err = db.Recover()
			if !errors.Is(err, wal.ErrRetiredKind) || !strings.Contains(err.Error(), kind) {
				t.Fatalf("Recover: %v, want wal.ErrRetiredKind naming %s", err, kind)
			}
			if after := readSegments(t, segs); !reflect.DeepEqual(after, before) {
				t.Fatal("Recover changed the log")
			}
		})
	}
}

// readSegments returns the bytes of every file in segs.
func readSegments(t *testing.T, segs []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(segs))
	for i, path := range segs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}
