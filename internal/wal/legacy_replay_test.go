package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adskip/internal/storage"
)

// TestOldRowRecordsRefused: a log that holds a whole record of a retired
// kind, followed by a column-block record, is refused with ErrRetiredKind
// and an error that names the kind. The retired records are the row-major
// appends of older releases (kind 1, or 3 with a shard number), filling
// the first segment before a column-block segment, and the in-place update
// (kind 2, or 4 with a shard number), followed in its segment by a
// column-block record. Their frames pass their checksums, so recovery must
// not read them as a torn tail: Open calls the replay callback for no
// record and leaves every segment byte for byte as it was.
func TestOldRowRecordsRefused(t *testing.T) {
	types := []storage.Type{storage.Int64, storage.Float64, storage.String}
	// segment returns segment index's image: its header, then frames.
	segment := func(index, baseLSN uint64, frames ...[]byte) []byte {
		b := append([]byte(nil), segMagic[:]...)
		b = binary.LittleEndian.AppendUint64(b, index)
		b = binary.LittleEndian.AppendUint64(b, baseLSN)
		for _, f := range frames {
			b = append(b, f...)
		}
		return b
	}
	columns := func(shard uint32, base uint64, n int) []byte {
		rec := columnsRecord("t", base, types, testRows(base, n))
		rec.Shard = shard
		f, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		name, kind string
		shard      uint32
		rowMajor   bool
	}{
		{"shard=0", "kind 1", 0, true},
		{"shard=2", "kind 3", 2, true},
		{"kind=2", "kind 2", 0, false},
		{"kind=4", "kind 4", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.rowMajor {
				var old []legacyRows
				var base uint64
				for _, n := range []int{5, 300, 1} {
					rows := testRows(base, n)
					rows[0][1] = storage.NullValue(storage.Float64)
					old = append(old, legacyRows{Table: "t", Shard: tc.shard, BaseRow: base, Types: types, Rows: rows})
					base += uint64(n)
				}
				if err := writeLegacySegment(dir, old...); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(segPath(dir, 2), segment(2, uint64(len(old)), columns(tc.shard, base, 7)), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				update := AppendFrame(nil, encodeLegacyUpdate(tc.shard, "t", "c0", 3, -1))
				if err := os.WriteFile(segPath(dir, 1), segment(1, 0, update, columns(tc.shard, 0, 7)), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			before := readFiles(t, dir)
			calls := 0
			l, _, err := Open(Options{Dir: dir, NoSync: true}, func(*Record) error { calls++; return nil })
			if l != nil {
				l.Close()
			}
			if !errors.Is(err, ErrRetiredKind) || !strings.Contains(fmt.Sprint(err), tc.kind) {
				t.Errorf("Open: err = %v, want ErrRetiredKind naming %s", err, tc.kind)
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
