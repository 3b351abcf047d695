package adaptive

import (
	"errors"
	"testing"

	"adskip/internal/storage"
)

// gapRow finds the row left uncovered by corruptLayout's tiling break.
func gapRow(t *testing.T, z *Zonemap) int {
	t.Helper()
	prev := 0
	for _, zn := range z.zones {
		if zn.lo != prev {
			return prev
		}
		prev = zn.hi
	}
	if prev != z.tailLo {
		return prev
	}
	t.Fatal("layout not corrupted")
	return -1
}

// TestZoneIndexCorruptionNoPanic is the regression test for the old
// behavior where a row outside every zone panicked inside zoneIndex and
// took down the whole process mid-query. Now the zonemap must record the
// corruption, return -1, and keep every entry point panic-free.
func TestZoneIndexCorruptionNoPanic(t *testing.T) {
	codes := seqCodes(1024, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	if err := z.Health(); err != nil {
		t.Fatalf("fresh zonemap unhealthy: %v", err)
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatalf("fresh zonemap fails invariants: %v", err)
	}

	z.corruptLayout()
	gap := gapRow(t, z)

	// The explicit checker sees the tiling gap immediately.
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err == nil {
		t.Fatal("CheckInvariants missed the tiling gap")
	}

	// Mutation entry points that hit zoneIndex must degrade, not panic.
	z.NoteNonNull(gap)
	z.Widen(gap, -1)
	if err := z.Health(); err == nil {
		t.Fatal("zoneIndex miss did not latch health")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("health=%v, want ErrCorrupt", err)
	}

	// Once unhealthy, the zonemap declines to prune: a full scan is the
	// only sound answer.
	res := z.Prune(oneRange(0, 100))
	if res.Enabled {
		t.Fatal("unhealthy zonemap still claims pruning")
	}
	// CheckInvariants keeps reporting the latched corruption.
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want latched ErrCorrupt", err)
	}
}

// TestPruneDetectsTilingGap verifies the probe-side defense: even before
// any mutation touches the gap row, Prune's tiling walk notices the
// broken layout, declines, and latches health.
func TestPruneDetectsTilingGap(t *testing.T) {
	codes := seqCodes(2048, func(i int) int64 { return int64(i % 97) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	z.corruptLayout()

	res := z.Prune(oneRange(0, 96))
	if res.Enabled {
		t.Fatal("Prune emitted candidates from a corrupted layout")
	}
	if !errors.Is(z.Health(), ErrCorrupt) {
		t.Fatalf("health=%v, want ErrCorrupt", z.Health())
	}
	// Subsequent probes stay declined without re-walking.
	if z.Prune(oneRange(0, 96)).Enabled || z.PruneNulls().Enabled {
		t.Fatal("unhealthy zonemap re-enabled itself")
	}
}
