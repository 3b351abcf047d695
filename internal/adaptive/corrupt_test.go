package adaptive

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// gapRow finds the row left uncovered by corruptLayout's tiling break.
func gapRow(t *testing.T, z *Zonemap) int {
	t.Helper()
	prev := 0
	for _, zn := range z.Zones {
		if zn.Lo != prev {
			return prev
		}
		prev = zn.Hi
	}
	if prev != z.Indexed() {
		return prev
	}
	t.Fatal("layout not corrupted")
	return -1
}

// mustPanicCorrupt fails unless call panics with an error wrapping
// ErrCorrupt.
func mustPanicCorrupt(t *testing.T, what string, call func()) {
	t.Helper()
	var got any
	func() {
		defer func() { got = recover() }()
		call()
	}()
	if err, ok := got.(error); !ok || !errors.Is(err, zonemap.ErrCorrupt) {
		t.Fatalf("%s on a broken layout: recovered %v, want a panic wrapping ErrCorrupt", what, got)
	}
}

// TestPruneDetectsTilingGap: on a broken layout, every entry point that
// relies on the zones tiling the indexed rows — the probe walk of Prune
// and PruneNulls — panics with an error wrapping ErrCorrupt instead of
// answering.
func TestPruneDetectsTilingGap(t *testing.T) {
	codes := seqCodes(2048, func(i int) int64 { return int64(i % 97) })
	z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
	z.corruptLayout()
	mustPanicCorrupt(t, "Prune", func() { z.Prune(oneRange(0, 96)) })
	mustPanicCorrupt(t, "PruneNulls", func() { z.PruneNulls() })

	// A gap between two blocks is found by the walk itself, whether it
	// skips the block after the gap or looks inside it.
	z = New(storage.Vec{W: codes}, nil, 16, smallParts) // 128 zones: two blocks
	z.Zones[zonemap.BlockZones-1].Hi--
	mustPanicCorrupt(t, "Prune entering the block after a gap", func() { z.Prune(oneRange(0, 96)) })
	mustPanicCorrupt(t, "Prune skipping the block after a gap", func() { z.Prune(oneRange(1000, 2000)) })
}

// TestZoneIndexCorruptionNoPanic: a layout that leaves a row outside every
// zone must not crash the calls that inspect
// a faulted zonemap. The engine's fault handler reads Metadata and Rows of
// the zonemap it drops, and VerifySkipping runs CheckInvariants on it; a
// panic there would escape the handler. CheckInvariants names the gap.
func TestZoneIndexCorruptionNoPanic(t *testing.T) {
	codes := seqCodes(1024, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatalf("fresh zonemap fails invariants: %v", err)
	}
	zones := len(z.Zones)

	z.corruptLayout()
	gap := gapRow(t, z)
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("inspecting a broken layout panicked: %v", p)
			}
		}()
		if md := z.Metadata(); md.Zones != zones {
			t.Fatalf("Metadata().Zones = %d on a broken layout, want %d", md.Zones, zones)
		}
		if rows := z.Rows(); rows != len(codes) {
			t.Fatalf("Rows() = %d on a broken layout, want %d", rows, len(codes))
		}
		z.Introspect()
		z.DescribeZones(4)
		err = z.CheckInvariants(storage.Vec{W: codes}, nil)
	}()
	if err == nil {
		t.Fatal("CheckInvariants missed the tiling gap")
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("want %d ", gap)) &&
		!strings.Contains(msg, fmt.Sprintf("end at %d,", gap)) {
		t.Fatalf("CheckInvariants error %q does not name the gap at row %d", msg, gap)
	}

	// A learner that names the wrong first part breaks the layout too.
	z = New(storage.Vec{W: codes}, nil, smallZone, smallParts)
	z.learn[3].first++
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err == nil || !strings.Contains(err.Error(), "zone 3 of") {
		t.Fatalf("CheckInvariants on a learner off its first part: %v", err)
	}
}
