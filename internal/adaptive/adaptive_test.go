package adaptive

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

func oneRange(lo, hi int64) expr.Ranges {
	return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}}
}

// execute simulates the engine's scan loop over a prune result: it scans
// candidate windows with the kernels, honors covered short-circuits, and
// feeds the result back. It returns the matching row count.
func execute(z *Zonemap, codes []int64, nulls *bitvec.BitVec, r expr.Ranges) int {
	return executeVec(z, storage.Vec{W: codes}, nulls, r)
}

// executeVec is execute over a view of either width.
func executeVec(z *Zonemap, codes storage.Vec, nulls *bitvec.BitVec, r expr.Ranges) (count int) {
	res := z.Prune(r)
	if !res.Enabled {
		count = scan.Count(codes, 0, codes.Len(), r, nulls, 0)
	}
	for _, c := range res.Zones {
		if c.Covered {
			count += c.Hi - c.Lo
		} else {
			count += scan.Count(codes, c.Lo, c.Hi, r, nulls, 0)
		}
	}
	z.Observe(res)
	return count
}

func seqCodes(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func smallCfg() Config {
	return Config{
		InitialZoneRows: 100,
		MinZoneRows:     10,
	}
}

// small tunes z for the columns of a few hundred rows these tests build: a
// 1000-zone budget, an 8-query arbitration window, and a merge sweep and a
// shadow probe every 4 queries.
func small(z *Zonemap) *Zonemap {
	z.tune.maxZones, z.tune.window = 1000, 8
	z.tune.mergeSweepEvery, z.tune.reprobeEvery = 4, 4
	return z
}

func TestNewBuildsCoarseZones(t *testing.T) {
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	if z.NumZones() != 3 || z.Rows() != 250 || !z.Enabled() {
		t.Fatalf("zones=%d rows=%d", z.NumZones(), z.Rows())
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
	md := z.Metadata()
	if md.Kind != "adaptive" || md.Zones != 3 || !md.Enabled || md.Bytes == 0 {
		t.Fatalf("metadata=%+v", md)
	}
}

func TestPruneSkipsAndCovers(t *testing.T) {
	// Three zones with values 0..99, 100..199, 200..249 (sorted data).
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	res := z.Prune(oneRange(120, 180))
	// 1 block probe + 3 member zones (all zones fit in one block).
	if !res.Enabled || res.ZonesProbed != 4 {
		t.Fatalf("res=%+v", res)
	}
	if len(res.Zones) != 1 || res.Zones[0].Lo != 100 || res.Zones[0].Hi != 200 {
		t.Fatalf("zones=%v", res.Zones)
	}
	if res.RowsSkipped != 150 {
		t.Fatalf("RowsSkipped=%d", res.RowsSkipped)
	}
	// Fully covering predicate -> covered candidate.
	res = z.Prune(oneRange(100, 199))
	if len(res.Zones) != 1 || !res.Zones[0].Covered {
		t.Fatalf("covered prune: %v", res.Zones)
	}
	// A partially overlapping zone is scanned, the one after it covered.
	res = z.Prune(oneRange(150, 260))
	if len(res.Zones) != 2 || res.Zones[0].Covered || res.Zones[0].Lo != 100 || !res.Zones[1].Covered {
		t.Fatalf("zones: %+v", res.Zones)
	}
}

func TestCountsMatchNaiveOnEveryDistribution(t *testing.T) {
	distros := map[string]func(i int) int64{
		"sorted":    func(i int) int64 { return int64(i) },
		"clustered": func(i int) int64 { return int64((i / 50) * 1000) },
		"random":    func(i int) int64 { return int64((i*2654435761 + 17) % 5000) },
	}
	for name, f := range distros {
		codes := seqCodes(1000, f)
		z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
		rng := rand.New(rand.NewSource(7))
		for q := 0; q < 200; q++ {
			lo := rng.Int63n(5200) - 100
			r := oneRange(lo, lo+rng.Int63n(500))
			got := execute(z, codes, nil, r)
			want := scan.CountRanges(codes, 0, 1000, r, nil, 0)
			if got != want {
				t.Fatalf("%s q%d: got %d want %d", name, q, got, want)
			}
			if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
				t.Fatalf("%s q%d: %v", name, q, err)
			}
		}
	}
}

func TestSplitRefinesClusteredZone(t *testing.T) {
	// One initial zone of 100 rows, values = i (sorted inside the zone):
	// a narrow predicate should trigger a split that later prunes.
	cfg := smallCfg()
	cfg.InitialZoneRows = 1000
	codes := seqCodes(1000, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, cfg)
	if z.NumZones() != 1 {
		t.Fatalf("zones=%d", z.NumZones())
	}
	execute(z, codes, nil, oneRange(0, 49)) // scans the zone, splits it from its parts
	if z.NumZones() <= 1 {
		t.Fatal("no split happened")
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
	if z.Stats().Splits == 0 {
		t.Fatal("split counter not incremented")
	}
	// The same query now skips most rows.
	res := z.Prune(oneRange(0, 49))
	if res.RowsSkipped == 0 {
		t.Fatalf("refined metadata should skip rows: %+v", res)
	}
}

func TestSplitRespectsMinZoneAndBudget(t *testing.T) {
	cfg := smallCfg()
	cfg.InitialZoneRows = 40
	cfg.MinZoneRows = 40 // one part: no boundary inside the zone to split at
	codes := seqCodes(40, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, cfg)
	execute(z, codes, nil, oneRange(0, 5))
	if z.NumZones() != 1 {
		t.Fatalf("split below the floor: %d zones", z.NumZones())
	}
	// Budget: MaxZones equal to current count forbids splits.
	cfg2 := smallCfg()
	cfg2.InitialZoneRows = 100
	codes2 := seqCodes(1000, func(i int) int64 { return int64(i) })
	z2 := New(storage.Vec{W: codes2}, nil, cfg2)
	z2.tune.maxZones = 10 // 10 zones of 100 over 1000 rows; no headroom
	before := z2.NumZones()
	execute(z2, codes2, nil, oneRange(0, 10))
	if z2.NumZones() != before {
		t.Fatalf("split exceeded budget: %d -> %d", before, z2.NumZones())
	}
}

func TestMergeCoalescesUselessZones(t *testing.T) {
	// Random data: zones never skip, heat decays, merge sweep coalesces.
	rng := rand.New(rand.NewSource(3))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(1000) })
	z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
	// Keep arbitration from disabling during this test.
	z.tune.window = 1 << 30
	before := z.NumZones() // 10
	for q := 0; q < 100; q++ {
		execute(z, codes, nil, oneRange(400, 600))
	}
	if z.NumZones() >= before {
		t.Fatalf("no merge: %d -> %d", before, z.NumZones())
	}
	if z.Stats().Merges == 0 {
		t.Fatal("merge counter not incremented")
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
}

func TestArbitrationDisablesOnAdversarialData(t *testing.T) {
	// Uniform random data: no zone ever skips; probing is pure overhead.
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
	z.tune.probeCost = 100 // make the loss decisive quickly
	for q := 0; q < 50; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() {
		t.Fatal("arbitration failed to disable on adversarial data")
	}
	if z.Stats().Disables == 0 {
		t.Fatal("disable counter not incremented")
	}
	// Disabled prune declines with no probe cost.
	res := z.Prune(oneRange(40, 60))
	if res.Enabled || res.ZonesProbed != 0 {
		t.Fatalf("disabled prune: %+v", res)
	}
	// Counts remain correct while disabled.
	got := execute(z, codes, nil, oneRange(40, 60))
	want := scan.CountRanges(codes, 0, 1000, oneRange(40, 60), nil, 0)
	if got != want {
		t.Fatalf("disabled count %d want %d", got, want)
	}
}

func TestShadowProbeReenables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
	z.tune.probeCost = 50 // loses badly on unskippable queries, wins on skippable
	z.tune.reprobeEvery = 2
	z.tune.window = 4
	// Disable with an unskippable workload.
	for q := 0; q < 60; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() {
		t.Fatal("precondition: should be disabled")
	}
	// Workload drifts to a predicate entirely outside the data domain:
	// every zone would skip; shadow probes should re-enable.
	for q := 0; q < 60 && !z.Enabled(); q++ {
		enables := z.Stats().Enables
		probe := z.Prune(oneRange(10_000, 20_000)) // the probe execute makes; Prune writes nothing
		execute(z, codes, nil, oneRange(10_000, 20_000))
		if z.Stats().Enables > enables && !probe.Enabled {
			t.Fatal("the query that re-enabled the zonemap was not pruned")
		}
	}
	if !z.Enabled() {
		t.Fatal("shadow probe never re-enabled")
	}
	if z.Stats().Enables == 0 {
		t.Fatal("enable counter not incremented")
	}
}

func TestExtendAndTailFold(t *testing.T) {
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	z.tune.tailFoldRows = 150
	// Small append: goes to tail, still scanned, counts correct.
	codes = append(codes, seqCodes(50, func(i int) int64 { return int64(1000 + i) })...)
	z.Extend(storage.Vec{W: codes}, nil)
	if z.Stats().TailRows != 50 {
		t.Fatalf("tail=%d", z.Stats().TailRows)
	}
	got := execute(z, codes, nil, oneRange(1000, 2000))
	if got != 50 {
		t.Fatalf("tail rows not scanned: %d", got)
	}
	// Larger append crosses the fold threshold.
	codes = append(codes, seqCodes(120, func(i int) int64 { return int64(2000 + i) })...)
	z.Extend(storage.Vec{W: codes}, nil)
	if z.Stats().TailRows != 0 {
		t.Fatalf("tail not folded: %d", z.Stats().TailRows)
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
	// Folded zones participate in pruning.
	res := z.Prune(oneRange(0, 10))
	if res.RowsSkipped == 0 {
		t.Fatal("folded zones should prune")
	}
	// FoldTail on empty tail is a no-op.
	z.FoldTail(storage.Vec{W: codes}, nil)
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
}

// TestFoldTailJournalsHullPastAllNullZone is the regression test for the
// fold record's hull: when the first folded zone is all NULL it carries
// no bounds, and the hull must be seeded from the first zone that does —
// not folded against a zero value (which reported min_after = 0 on
// all-positive data).
func TestFoldTailJournalsHullPastAllNullZone(t *testing.T) {
	cfg := smallCfg() // 100-row zones
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(100)
	z := New(storage.Vec{W: codes}, nulls, cfg)
	var recs []obs.LedgerRecord
	z.SetJournal(func(r obs.LedgerRecord) { recs = append(recs, r) })

	// A 300-row tail: all NULL, then [5000,5100), then [7000,7100).
	codes = append(codes, make([]int64, 100)...)
	codes = append(codes, seqCodes(100, func(i int) int64 { return int64(5000 + i) })...)
	codes = append(codes, seqCodes(100, func(i int) int64 { return int64(7000 + i) })...)
	nulls = bitvec.New(400)
	for i := 100; i < 200; i++ {
		nulls.Set(i)
	}
	z.Extend(storage.Vec{W: codes}, nulls)
	z.FoldTail(storage.Vec{W: codes}, nulls)

	if len(recs) != 1 || recs[0].Kind != obs.EventTailFold {
		t.Fatalf("journal = %+v, want one tail-fold record", recs)
	}
	r := recs[0]
	if r.RowLo != 100 || r.RowHi != 400 || r.ZonesBefore != 1 || r.ZonesAfter != 4 {
		t.Fatalf("fold window/zones = %+v", r)
	}
	if r.MinAfter != 5000 || r.MaxAfter != 7099 {
		t.Fatalf("fold hull = [%d,%d], want [5000,7099]", r.MinAfter, r.MaxAfter)
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nulls, true); err != nil {
		t.Fatal(err)
	}
}

func TestWidenKeepsPruningSound(t *testing.T) {
	codes := seqCodes(200, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	// Update row 5 to a huge value; widen metadata accordingly.
	codes[5] = 99999
	z.Widen(5, 99999)
	got := execute(z, codes, nil, oneRange(99999, 99999))
	if got != 1 {
		t.Fatalf("updated row lost: count=%d", got)
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil, true); err != nil {
		t.Fatal(err)
	}
	// Widen in the tail region is a no-op and must not panic.
	codes = append(codes, 7)
	z.Extend(storage.Vec{W: codes}, nil)
	z.Widen(200, 7)
}

func TestNoteNonNull(t *testing.T) {
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(100)
	nulls.Set(10)
	z := New(storage.Vec{W: codes}, nulls, smallCfg())
	// Row 10 gains value 42.
	nulls.Clear(10)
	codes[10] = 42
	z.Widen(10, 42)
	z.NoteNonNull(10)
	if err := z.CheckInvariants(storage.Vec{W: codes}, nulls, true); err != nil {
		t.Fatal(err)
	}
}

func TestAllNullZone(t *testing.T) {
	codes := make([]int64, 200)
	nulls := bitvec.New(200)
	for i := 0; i < 100; i++ {
		nulls.Set(i) // first zone all null
	}
	for i := 100; i < 200; i++ {
		codes[i] = int64(i)
	}
	z := New(storage.Vec{W: codes}, nulls, smallCfg())
	res := z.Prune(oneRange(-1_000_000, 1_000_000))
	// All-null zone must be skipped even for an all-matching predicate.
	if len(res.Zones) != 1 || res.Zones[0].Lo != 100 {
		t.Fatalf("zones=%v", res.Zones)
	}
	got := execute(z, codes, nulls, oneRange(-1_000_000, 1_000_000))
	if got != 100 {
		t.Fatalf("count=%d want 100", got)
	}
}

// Property: under random interleavings of queries, appends, and updates,
// the adaptive zonemap stays structurally sound and always returns exact
// counts.
func TestQuickAdaptiveSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			InitialZoneRows: 20 + rng.Intn(100),
			MinZoneRows:     2 + rng.Intn(10),
		}
		tune := newTuning(cfg.withDefaults())
		tune.maxZones, tune.window = 50+rng.Intn(500), 4+rng.Intn(16)
		tune.mergeSweepEvery, tune.reprobeEvery = 1+rng.Intn(8), 1+rng.Intn(8)
		n := 50 + rng.Intn(400)
		codes := make([]int64, n)
		for i := range codes {
			codes[i] = rng.Int63n(300)
		}
		var nulls *bitvec.BitVec
		z := New(storage.Vec{W: codes}, nulls, cfg)
		z.tune = tune
		for step := 0; step < 120; step++ {
			switch rng.Intn(10) {
			case 0: // append
				for k := 0; k < 1+rng.Intn(30); k++ {
					codes = append(codes, rng.Int63n(300))
				}
				z.Extend(storage.Vec{W: codes}, nulls)
			case 1: // in-place update
				row := rng.Intn(len(codes))
				v := rng.Int63n(600) - 150
				codes[row] = v
				z.Widen(row, v)
			default: // query
				lo := rng.Int63n(400) - 50
				r := oneRange(lo, lo+rng.Int63n(150))
				got := execute(z, codes, nulls, r)
				want := scan.CountRanges(codes, 0, len(codes), r, nulls, 0)
				if got != want {
					return false
				}
			}
			if err := z.CheckInvariants(storage.Vec{W: codes}, nulls, false); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.InitialZoneRows != 65536 || c.MinZoneRows != 1024 ||
		c.DisableSplit || c.DisableMerge || c.DisableArbitration {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// The tail folds at InitialZoneRows, the default one or a custom one.
	codes := storage.Vec{W: seqCodes(250, func(i int) int64 { return int64(i) })}
	if tf := New(codes, nil, Config{}).tune.tailFoldRows; tf != 65536 {
		t.Fatalf("tailFoldRows=%d", tf)
	}
	if tf := New(codes, nil, Config{InitialZoneRows: 100}).tune.tailFoldRows; tf != 100 {
		t.Fatalf("tailFoldRows=%d", tf)
	}
}

func TestDescribeZones(t *testing.T) {
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallCfg())
	s := z.DescribeZones(2)
	if s == "" || len(s) < 20 {
		t.Fatalf("DescribeZones: %q", s)
	}
}

// TestIntrospectIsReadOnly: Introspect, the cold path behind /adaptation,
// leaves the zones and the coarse level as it found them — after a stream
// that split and merged, and a last probe that pruned whole blocks — and
// reports as dead exactly the zones the merge sweep treats as cold.
func TestIntrospectIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// 2,000 uniform rows, whose zones never prune and go cold, then 18,000
	// rows in 500-row value bands, whose zones split.
	codes := seqCodes(20000, func(i int) int64 {
		if i < 2000 {
			return rng.Int63n(40000)
		}
		return int64(i/500)*1000 + rng.Int63n(500)
	})
	z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
	z.tune.window = 1 << 30 // keep arbitration from disabling during this test
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(40000)
		execute(z, codes, nil, oneRange(lo, lo+300))
	}
	if st := z.Stats(); st.Splits == 0 || st.Merges == 0 {
		t.Fatalf("the stream did not both split and merge: %+v", st)
	}
	if res := z.Prune(oneRange(39000, 39010)); res.RowsSkipped < 10000 {
		t.Fatalf("the last probe skipped %d rows, want whole blocks", res.RowsSkipped)
	}
	zones, blocks := slices.Clone(z.zones), slices.Clone(z.blocks)
	snap := z.Introspect()
	if !reflect.DeepEqual(zones, z.zones) || !reflect.DeepEqual(blocks, z.blocks) {
		t.Fatal("Introspect wrote to the zonemap")
	}
	var dead []obs.ROIZone
	for _, zn := range zones {
		if zn.heat < z.tune.mergeHeat {
			mn, mx := bounds(zn.hull)
			dead = append(dead, obs.ROIZone{Lo: zn.lo, Hi: zn.hi, Min: mn, Max: mx, Heat: zn.heat})
		}
	}
	if len(dead) == 0 || !reflect.DeepEqual(snap.DeadZones, dead) {
		t.Fatalf("dead zones %+v, want the %d zones below MergeHeat %+v", snap.DeadZones, len(dead), dead)
	}
}

// clone deep-copies z, so that reflect.DeepEqual can tell whether a call
// wrote to it. A zonemap with a journal never compares equal: func values
// are only DeepEqual when nil.
func clone(z *Zonemap) *Zonemap {
	c := *z
	c.zones, c.blocks, c.parts = slices.Clone(z.zones), slices.Clone(z.blocks), slices.Clone(z.parts)
	return &c
}

// readOnly runs probe on z and fails unless z is exactly as it was.
func readOnly(t *testing.T, what string, z *Zonemap, probe func() core.PruneResult) core.PruneResult {
	t.Helper()
	before := clone(z)
	res := probe()
	if !reflect.DeepEqual(before, z) {
		t.Fatalf("%s wrote to the zonemap", what)
	}
	return res
}

// TestPruneIsReadOnly: Prune and PruneNulls read the zone directory and
// write nothing the zonemap learns — not on a trained map whose probe
// skips, covers and scans zones, not on a disabled one, not on the
// re-probe query that will re-enable it, not on a broken layout, where
// they panic with ErrCorrupt and leave the zonemap as it was.
func TestPruneIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// 500-row value bands: zones split.
	codes := seqCodes(6000, func(i int) int64 { return int64(i/500)*1000 + rng.Int63n(500) })
	z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
	z.tune.window = 1 << 30 // keep arbitration from disabling
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(12000)
		execute(z, codes, nil, oneRange(lo, lo+700))
	}
	if z.Stats().Splits == 0 {
		t.Fatal("precondition: the stream did not split")
	}
	prune := func(r expr.Ranges) func() core.PruneResult {
		return func() core.PruneResult { return z.Prune(r) }
	}
	res := readOnly(t, "Prune", z, prune(oneRange(2000, 4300)))
	covers := slices.ContainsFunc(res.Zones, func(c core.CandidateZone) bool { return c.Covered })
	if !res.Enabled || res.RowsSkipped == 0 || res.MissOverlap == 0 || !covers {
		t.Fatalf("precondition: the probe should skip, cover and scan zones: %+v", res)
	}
	multi := expr.Ranges{Lo: []int64{100, 5000}, Hi: []int64{300, 5200}}
	readOnly(t, "a multi-interval Prune", z, prune(multi))
	readOnly(t, "PruneNulls", z, z.PruneNulls)

	z.corruptLayout()
	for _, c := range []struct {
		what  string
		probe func() core.PruneResult
	}{
		{"Prune on a broken layout", prune(oneRange(0, 12000))},
		{"PruneNulls on a broken layout", z.PruneNulls},
	} {
		readOnly(t, c.what, z, func() core.PruneResult {
			mustPanicCorrupt(t, c.what, func() { c.probe() })
			return core.PruneResult{}
		})
	}

	// Uniform data disables the map; an out-of-domain predicate would skip
	// every zone, so its shadow probe re-enables.
	codes = seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z = small(New(storage.Vec{W: codes}, nil, smallCfg()))
	z.tune.probeCost = 100
	for q := 0; q < 50; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() {
		t.Fatal("precondition: should be disabled")
	}
	z.tune.probeCost = 1
	out := oneRange(10_000, 20_000)
	for q := 0; (z.disabledQueries+1)%z.tune.reprobeEvery != 0 || z.shadowBenefit(out) <= 0; q++ {
		if q == 100 {
			t.Fatal("precondition: the shadow probe never turned positive")
		}
		if readOnly(t, "Prune on a disabled map", z, prune(out)).Enabled {
			t.Fatal("a disabled map probed on a query that does not re-enable it")
		}
		execute(z, codes, nil, out)
	}
	res = readOnly(t, "the re-enabling Prune", z, prune(out))
	if !res.Enabled || z.Enabled() {
		t.Fatalf("the re-probe query should probe as enabled, leaving the map disabled: %+v", res)
	}
	readOnly(t, "PruneNulls on a disabled map", z, z.PruneNulls)
}

// TestNullProbeOnDisabledMap: an IS NULL probe of a disabled column feeds
// the cost model but neither disables the map again nor touches the
// shadow-probe countdown, so range queries still reach the re-probe that
// can re-enable it.
func TestNullProbeOnDisabledMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := small(New(storage.Vec{W: codes}, nil, smallCfg()))
	z.tune.probeCost = 100
	for q := 0; q < 50 && (z.Enabled() || z.disabledQueries == 0); q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Enabled() || z.disabledQueries == 0 {
		t.Fatalf("precondition: disabled and counting down, got enabled=%v countdown=%d",
			z.Enabled(), z.disabledQueries)
	}
	var records []obs.LedgerRecord
	z.SetJournal(func(rec obs.LedgerRecord) { records = append(records, rec) })
	disables, countdown := z.Stats().Disables, z.disabledQueries
	for q := 0; q < 10; q++ {
		z.Observe(z.PruneNulls())
	}
	if got := z.Stats().Disables; got != disables {
		t.Errorf("null probes disabled the map again: %d disables, want %d", got, disables)
	}
	if len(records) != 0 {
		t.Errorf("null probes journaled %d records, the first %v", len(records), records[0])
	}
	if z.disabledQueries != countdown {
		t.Errorf("null probes moved the shadow-probe countdown from %d to %d", countdown, z.disabledQueries)
	}
}

// TestProbeStructSizes pins the probe structs and the summary's part,
// which Metadata() counts with unsafe.Sizeof. A change here moves the three
// adaptive.metadata_bytes lines of scripts/bench_counters.golden
// (skip-clustered, scan-uniform and ingest-mixed) and the "bytes" literals
// of the engine's TestIntrospectDerivationsMatchParent.
func TestProbeStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(zone{}); got != 56 {
		t.Errorf("zone is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(scan.PartStat{}); got != 40 {
		t.Errorf("part is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(zonemap.Block[expr.Hull]{}); got != 24 {
		t.Errorf("block is %d bytes, want 24", got)
	}
}

// handMap is a zonemap of one zone over 10-row parts with the given hulls
// and non-null counts, as New would build it over rows that have them.
func handMap(hulls []expr.Hull, nonNull []int) *Zonemap {
	cfg := Config{MinZoneRows: 10}.withDefaults()
	n := 10 * len(hulls)
	z := &Zonemap{cfg: cfg, tune: newTuning(cfg), enabled: true, rows: n, tailLo: n}
	whole := zone{lo: 0, hi: n, hull: expr.EmptyHull, heat: 0.5}
	for k, h := range hulls {
		p := scan.PartStat{Lo: 10 * k, Hi: 10*k + 10, Hull: h, NonNull: nonNull[k]}
		z.parts = append(z.parts, p)
		whole.hull, whole.nonNull = whole.hull.Union(h), whole.nonNull+p.NonNull
	}
	z.zones = []zone{whole}
	z.rebuildBlocks(0)
	return z
}

// One Observe splits the zone it had to scan exactly where the verdict
// changes across its parts, and where neighbouring parts stop being alike:
// a run grows while the next part has its verdict and compatible bounds,
// and a pruned run only while its union is still pruned. With no pruned
// run, or no room under MaxZones, nothing splits. Each sub-zone is the
// union of its parts.
func TestSplitAtVerdictChanges(t *testing.T) {
	h := func(lo, hi int64) expr.Hull { return expr.Hull{Min: lo, Max: hi} }
	bands := []expr.Hull{h(0, 9), h(0, 9), h(20, 29), h(30, 39), h(30, 39), h(40, 49), h(60, 69), h(60, 69)}
	sorted := []expr.Hull{h(0, 9), h(10, 19), h(20, 29), h(30, 39), h(40, 49), h(50, 59), h(60, 69), h(70, 79)}
	full := func(k int) []int {
		n := make([]int, k)
		for i := range n {
			n[i] = 10
		}
		return n
	}
	for _, c := range []struct {
		name     string
		hulls    []expr.Hull
		nonNull  []int
		r        expr.Ranges
		maxZones int   // 0: MaxZones
		want     []int // the zones' first rows after the Observe
	}{
		{"skipped, straddled, covered, straddled, skipped", bands, full(8), oneRange(25, 44), 0, []int{0, 20, 30, 50, 60}},
		{"skipped parts that are not alike", sorted, full(8), oneRange(25, 44), 0, []int{0, 10, 20, 30, 40, 50, 60, 70}},
		{"alike skipped parts whose union straddles", []expr.Hull{h(0, 100), h(102, 150)}, full(2), oneRange(101, 101), 0, []int{0, 10}},
		{"alike scanned parts join", []expr.Hull{h(0, 9), h(0, 9), h(100, 200), h(300, 400)}, full(4), oneRange(5, 150), 0, []int{0, 20, 30}},
		{"alike covered parts join", []expr.Hull{h(0, 9), h(1, 10), h(40, 49)}, full(3), oneRange(0, 20), 0, []int{0, 20}},
		{"NULLs keep a matching part scanned", []expr.Hull{h(0, 9), h(0, 9), h(0, 9), h(30, 39), h(60, 69), h(60, 69)},
			[]int{10, 10, 10, 9, 10, 10}, oneRange(30, 39), 0, []int{0, 30, 40}},
		{"no pruned run", []expr.Hull{h(0, 9), h(100, 200), h(0, 9)}, full(3), oneRange(5, 150), 0, []int{0}},
		{"one part", sorted[:1], full(1), oneRange(5, 6), 0, []int{0}},
		{"over the zone budget", bands, full(8), oneRange(25, 44), 4, []int{0}},
		{"within the zone budget", bands, full(8), oneRange(25, 44), 5, []int{0, 20, 30, 50, 60}},
	} {
		t.Run(c.name, func(t *testing.T) {
			z := handMap(c.hulls, c.nonNull)
			if c.maxZones > 0 {
				z.tune.maxZones = c.maxZones
			}
			z.Observe(z.Prune(c.r))
			var got []int
			k := 0
			for _, zn := range z.zones {
				got = append(got, zn.lo)
				union, nonNull := expr.EmptyHull, 0
				for ; k < len(z.parts) && z.parts[k].Hi <= zn.hi; k++ {
					union, nonNull = union.Union(z.parts[k].Hull), nonNull+z.parts[k].NonNull
				}
				if zn.hull != union || zn.nonNull != nonNull {
					t.Fatalf("zone [%d,%d) hull %+v nonNull %d, its parts %+v %d", zn.lo, zn.hi, zn.hull, zn.nonNull, union, nonNull)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("zones start at %v, want %v", got, c.want)
			}
			if wantSplits := len(c.want) - 1; z.Stats().Splits != wantSplits {
				t.Fatalf("%d splits, want %d", z.Stats().Splits, wantSplits)
			}
		})
	}
}
