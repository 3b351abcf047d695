package wal

import (
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// writeLog builds a clean log of n single-row records in dir and returns
// the segment path and the byte offset of each record's frame, so tests
// can tear the file at precise places.
func writeLog(t *testing.T, dir string, n int) (string, []int64) {
	t.Helper()
	l, _ := openT(t, dir, Options{GroupWindow: -1}, nil)
	offs := make([]int64, 0, n)
	off := int64(segHeaderLen)
	for i := 0; i < n; i++ {
		rec := rowsRecord("data", uint64(i), 1)
		payload, err := EncodePayload(rec)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
		off += int64(frameLen + len(payload))
		c, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return segPath(dir, 1), offs
}

// TestTornTailTruncation is the table-driven heart of the recovery
// contract: for every way a crash can mangle the tail of a segment,
// replay must keep exactly the intact prefix, truncate the damage, mark
// the tail torn, and leave the log appendable.
func TestTornTailTruncation(t *testing.T) {
	const records = 6
	cases := []struct {
		name string
		// mangle rewrites the segment given the per-record offsets and the
		// file size, returning the expected number of surviving records.
		mangle     func(t *testing.T, path string, offs []int64, size int64) uint64
		wantReason string
	}{
		{
			name: "truncated mid frame header",
			mangle: func(t *testing.T, path string, offs []int64, _ int64) uint64 {
				truncateTo(t, path, offs[4]+3)
				return 4
			},
			wantReason: "torn frame header",
		},
		{
			name: "truncated mid record body",
			mangle: func(t *testing.T, path string, offs []int64, _ int64) uint64 {
				truncateTo(t, path, offs[3]+frameLen+5)
				return 3
			},
			wantReason: "torn record body",
		},
		{
			name: "payload bit flip fails checksum",
			mangle: func(t *testing.T, path string, offs []int64, _ int64) uint64 {
				flipByte(t, path, offs[5]+frameLen+2)
				return 5
			},
			wantReason: "checksum mismatch",
		},
		{
			name: "length prefix zeroed",
			mangle: func(t *testing.T, path string, offs []int64, _ int64) uint64 {
				patchU32(t, path, offs[2], 0)
				return 2
			},
			wantReason: "implausible record length",
		},
		{
			name: "length prefix absurd",
			mangle: func(t *testing.T, path string, offs []int64, _ int64) uint64 {
				patchU32(t, path, offs[2], 1<<31)
				return 2
			},
			wantReason: "implausible record length",
		},
		{
			name: "length stretched past EOF",
			mangle: func(t *testing.T, path string, offs []int64, size int64) uint64 {
				// Claims more bytes than the file holds but under the record
				// cap: must read as a torn body, not an allocation.
				patchU32(t, path, offs[5], uint32(size))
				return 5
			},
			wantReason: "torn record body",
		},
		{
			name: "checksum field flipped",
			mangle: func(t *testing.T, path string, offs []int64, _ int64) uint64 {
				flipByte(t, path, offs[0]+5)
				return 0
			},
			wantReason: "checksum mismatch",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, offs := writeLog(t, dir, records)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.mangle(t, path, offs, info.Size())

			var n uint64
			l, stats := openT(t, dir, Options{}, func(*Record) error { n++; return nil })
			if n != want || stats.Records != want {
				t.Fatalf("replayed %d records (stats %d), want %d", n, stats.Records, want)
			}
			if !stats.TornTail || stats.Truncated == "" {
				t.Fatalf("damage not reported: %+v", stats)
			}
			if !strings.Contains(stats.Truncated, tc.wantReason) {
				t.Fatalf("Truncated = %q, want reason %q", stats.Truncated, tc.wantReason)
			}
			if stats.DroppedBytes <= 0 {
				t.Fatalf("no bytes dropped: %+v", stats)
			}
			// The file is physically truncated at the damage point: a second
			// replay is clean. offs[want] is the first bad record's frame
			// offset — exactly where the good prefix ends.
			wantOff := offs[want]
			if info, err := os.Stat(path); err != nil || info.Size() != wantOff {
				t.Fatalf("file size %d after truncation, want %d (err %v)", info.Size(), wantOff, err)
			}
			// The log stays appendable and the append survives reopen.
			c, err := l.Append(rowsRecord("data", uint64(want), 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			var n2 uint64
			l2, stats2 := openT(t, dir, Options{}, func(*Record) error { n2++; return nil })
			defer l2.Close()
			if stats2.TornTail || n2 != want+1 {
				t.Fatalf("second replay: %+v (%d records), want clean %d", stats2, n2, want+1)
			}
		})
	}
}

// TestMidLogCorruptionDropsLaterSegments: damage in a non-final segment
// orphans everything after it — the later segments are deleted, not
// replayed, because their BaseRow chain has a hole.
func TestMidLogCorruptionDropsLaterSegments(t *testing.T) {
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
	// Flip a byte early in segment 2's first record payload.
	flipByte(t, segPath(dir, 2), segHeaderLen+frameLen+3)

	var n uint64
	l2, stats := openT(t, dir, Options{SegmentBytes: 1}, func(*Record) error { n++; return nil })
	defer l2.Close()
	if stats.TornTail {
		t.Fatalf("mid-log damage misreported as torn tail: %+v", stats)
	}
	if stats.DroppedSegments != nsegs-2 {
		t.Fatalf("dropped %d segments, want %d: %+v", stats.DroppedSegments, nsegs-2, stats)
	}
	if n != stats.Records || n == 0 || n >= 40 {
		t.Fatalf("replayed %d records, want the intact prefix only", n)
	}
	// Dropped segments are deleted; the log keeps the surviving prefix
	// plus the reopened tail and stays appendable.
	st := l2.Status()
	if files := walFiles(t, dir); st.Segments != 2 || len(files) != 2 {
		t.Fatalf("orphaned segments not deleted: %+v, files %v", st, files)
	}
	c, err := l2.Append(rowsRecord("data", uint64(n*8), 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestBadSegmentHeader: a segment whose header is mangled contributes
// nothing and is rewritten in place when it is the tail.
func TestBadSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeLog(t, dir, 3)
	flipByte(t, path, 2) // magic byte

	var n uint64
	l, stats := openT(t, dir, Options{}, func(*Record) error { n++; return nil })
	defer l.Close()
	if n != 0 || stats.Records != 0 {
		t.Fatalf("replayed %d records from a bad-magic segment", n)
	}
	if !strings.Contains(stats.Truncated, "bad segment magic") {
		t.Fatalf("Truncated = %q", stats.Truncated)
	}
	// The rewritten tail must accept appends.
	c, err := l.Append(rowsRecord("data", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyNewestSegment: a newest segment of zero bytes — what NoSync
// can leave when the OS crashes after a rotation created the file but
// before its header reached the disk — costs no record of the earlier
// segments. It is rewritten in place, and what is appended to it
// recovers too.
func TestEmptyNewestSegment(t *testing.T) {
	const records = 12
	dir := t.TempDir()
	opts := Options{SegmentBytes: 1, GroupWindow: -1, NoSync: true}
	l, _ := openT(t, dir, opts, nil)
	for i := range records {
		c, err := l.Append(rowsRecord("data", uint64(i*8), 8))
		if err == nil {
			err = c.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	nsegs := l.Status().Segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, uint64(nsegs+1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var n uint64
	l2, stats := openT(t, dir, opts, func(*Record) error { n++; return nil })
	if n != records || stats.Records != records || stats.DroppedBytes != 0 || stats.DroppedSegments != 0 {
		t.Fatalf("replayed %d of %d records: %+v", n, records, stats)
	}
	c, err := l2.Append(rowsRecord("data", records*8, 8))
	if err == nil {
		err = c.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, stats := openT(t, dir, opts, nil)
	defer l3.Close()
	if stats.Records != records+1 || stats.Truncated != "" {
		t.Fatalf("after appending to the rewritten segment: %+v", stats)
	}
}

func truncateTo(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func patchU32(t *testing.T, path string, off int64, v uint32) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
