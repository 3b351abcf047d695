package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"adskip/internal/storage"
)

// TestOldRowRecordsRefused: a log whose first segment holds row-major
// append records, the form older releases wrote (kind 1, or 3 with a
// shard number), is refused with ErrOldRowRecord. Its frames pass their
// checksums, so recovery must not read them as a torn tail: Open calls
// the replay callback for none of them and leaves every segment, the
// later column-block one too, byte for byte as it was.
func TestOldRowRecordsRefused(t *testing.T) {
	types := []storage.Type{storage.Int64, storage.Float64, storage.String}
	for _, shard := range []uint32{0, 2} {
		t.Run(fmt.Sprintf("shard=%d", shard), func(t *testing.T) {
			dir := t.TempDir()
			var old []legacyRows
			var base uint64
			for _, n := range []int{5, 300, 1} {
				rows := testRows(base, n)
				rows[0][1] = storage.NullValue(storage.Float64)
				old = append(old, legacyRows{Table: "t", Shard: shard, BaseRow: base, Types: types, Rows: rows})
				base += uint64(n)
			}
			if err := writeLegacySegment(dir, old...); err != nil {
				t.Fatal(err)
			}
			seg2 := append([]byte(nil), segMagic[:]...)
			seg2 = binary.LittleEndian.AppendUint64(seg2, 2)
			seg2 = binary.LittleEndian.AppendUint64(seg2, uint64(len(old))) // base LSN
			rec := columnsRecord("t", base, types, testRows(base, 7))
			rec.Shard = shard
			seg2, err := AppendRecord(seg2, rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segPath(dir, 2), seg2, 0o644); err != nil {
				t.Fatal(err)
			}

			before := readFiles(t, dir)
			calls := 0
			l, _, err := Open(Options{Dir: dir, NoSync: true}, func(*Record) error { calls++; return nil })
			if l != nil {
				l.Close()
			}
			if !errors.Is(err, ErrOldRowRecord) {
				t.Errorf("Open: err = %v, want ErrOldRowRecord", err)
			}
			if calls != 0 {
				t.Errorf("replay callback called %d times, want 0", calls)
			}
			if after := readFiles(t, dir); !maps.Equal(after, before) {
				t.Errorf("Open changed the log: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// readFiles returns every file in dir by name.
func readFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}
