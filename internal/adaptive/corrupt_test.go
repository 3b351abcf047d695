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
		if int(zn.Lo) != prev {
			return prev
		}
		prev = int(zn.Hi)
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
}

// TestFirstPartCorruption: a zone names its first part, where a split
// starts walking its parts. A zone that names the wrong one, whose bounds,
// summary and parts are all still sound, fails CheckInvariants with
// ErrCorrupt, and so does a zone without its learner.
func TestFirstPartCorruption(t *testing.T) {
	codes := seqCodes(1024, func(i int) int64 { return int64(i) })
	for _, c := range []struct {
		name  string
		spoil func(z *Zonemap)
		want  string
	}{
		{"first part one late", func(z *Zonemap) { z.Zones[3].First++ }, "zone 3 [300,400) names part 31 as its first, not part 30"},
		{"first part one early", func(z *Zonemap) { z.Zones[3].First-- }, "names part 29 as its first, not part 30"},
		{"learner missing", func(z *Zonemap) { z.learn = z.learn[:len(z.learn)-1] }, "11 zones, 10 learners"},
	} {
		z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
		if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
			t.Fatalf("%s: fresh zonemap fails invariants: %v", c.name, err)
		}
		c.spoil(z)
		err := z.CheckInvariants(storage.Vec{W: codes}, nil)
		if !errors.Is(err, zonemap.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want ErrCorrupt naming %q", c.name, err, c.want)
		}
	}
}
