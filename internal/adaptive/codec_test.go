package adaptive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"adskip/internal/storage"
)

// trainedZonemap builds a zonemap and runs queries so it has learned
// structure worth persisting.
func trainedZonemap(t *testing.T) (*Zonemap, []int64) {
	t.Helper()
	codes := seqCodes(2000, func(i int) int64 { return int64((i / 20) * 100) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(10000)
		execute(z, codes, nil, oneRange(lo, lo+500))
	}
	return z, codes
}

func TestSnapshotRoundTrip(t *testing.T) {
	z, codes := trainedZonemap(t)
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumZones() != z.NumZones() || back.Rows() != z.Rows() || back.Enabled() != z.Enabled() {
		t.Fatalf("shape: %d/%d zones, %d/%d rows", back.NumZones(), z.NumZones(), back.Rows(), z.Rows())
	}
	if back.Stats() != z.Stats() {
		t.Fatalf("stats: %+v vs %+v", back.Stats(), z.Stats())
	}
	if err := back.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
	// The restored structure prunes identically.
	for _, lo := range []int64{0, 500, 5000, 9000} {
		a := z.Prune(oneRange(lo, lo+300))
		b := back.Prune(oneRange(lo, lo+300))
		if a.RowsSkipped != b.RowsSkipped || len(a.Zones) != len(b.Zones) {
			t.Fatalf("prune diverged at %d: %d/%d skipped", lo, a.RowsSkipped, b.RowsSkipped)
		}
	}
	// And keeps returning exact counts afterwards.
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(10000)
		r := oneRange(lo, lo+400)
		got := execute(back, codes, nil, r)
		want := execute(z, codes, nil, r)
		if got != want {
			t.Fatalf("q%d: %d vs %d", q, got, want)
		}
	}
}

func TestSnapshotCorruption(t *testing.T) {
	z, _ := trainedZonemap(t)
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0x55
	if _, err := Read(bytes.NewReader(flip), smallCfg()); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("flipped byte: %v", err)
	}

	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad), smallCfg()); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic: %v", err)
	}

	for _, cut := range []int{0, 7, len(raw) / 3, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut]), smallCfg()); err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
	}

	// A header whose zone count no payload backs is refused before Read
	// allocates for the zones.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hugeZoneCount(raw)), smallCfg())
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrBadSnapshot) || alloc >= 1<<20 {
		t.Fatalf("2^26 zones claimed, none present: %v after allocating %d bytes", err, alloc)
	}
}

// hugeZoneCount returns the 81-byte snapshot that keeps raw's header,
// claims 2^26 zones, holds none, and carries a valid checksum.
func hugeZoneCount(raw []byte) []byte {
	const countAt = 8 + 8 + 8 + 1 + 8 + 5*8 // magic, rows, tailLo, enabled, netBenefit, counters
	out := binary.LittleEndian.AppendUint32(slices.Clone(raw[:countAt]), 1<<26)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestSnapshotDisabledState(t *testing.T) {
	cfg := smallCfg()
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := New(storage.Vec{W: codes}, nil, cfg)
	z.tune.probeCost = 100
	for q := 0; q < 50; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() {
		t.Fatal("precondition: should be disabled")
	}
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Enabled() {
		t.Fatal("disabled state not preserved")
	}
	res := back.Prune(oneRange(40, 60))
	if res.Enabled {
		t.Fatal("restored disabled zonemap should decline")
	}
}
