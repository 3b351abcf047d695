package adaptive

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
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

// smallZone and smallParts size the maps of the small columns these tests
// build: 100-row zones of 10-row parts.
const smallZone, smallParts = 100, 10

// small tunes z for the columns of a few hundred rows these tests build:
// an 8-query horizon, so arbitration can disable after 8 queries and a
// disabled map shadow-probes every 8th.
func small(z *Zonemap) *Zonemap {
	z.tune.horizon = 8
	return z
}

func TestNewBuildsCoarseZones(t *testing.T) {
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
	if len(z.Zones) != 3 || z.Rows() != 250 {
		t.Fatalf("zones=%d rows=%d", len(z.Zones), z.Rows())
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
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
	z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
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
	// A predicate no value satisfies skips every row, and is still a
	// range probe: its Ranges are not nil, as an IS NULL probe's are.
	res = z.Prune(expr.Ranges{})
	if !res.Enabled || len(res.Zones) != 0 || res.RowsSkipped != 250 || res.Ranges.Lo == nil {
		t.Fatalf("empty predicate: %+v", res)
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
		z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
		rng := rand.New(rand.NewSource(7))
		for q := 0; q < 200; q++ {
			lo := rng.Int63n(5200) - 100
			r := oneRange(lo, lo+rng.Int63n(500))
			got := execute(z, codes, nil, r)
			want := scan.CountRanges(codes, 0, 1000, r, nil, 0)
			if got != want {
				t.Fatalf("%s q%d: got %d want %d", name, q, got, want)
			}
			if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
				t.Fatalf("%s q%d: %v", name, q, err)
			}
		}
	}
}

func TestSplitRefinesClusteredZone(t *testing.T) {
	// One initial zone of 100 rows, values = i (sorted inside the zone):
	// a narrow predicate should trigger a split that later prunes.
	codes := seqCodes(1000, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, 1000, smallParts)
	if len(z.Zones) != 1 {
		t.Fatalf("zones=%d", len(z.Zones))
	}
	execute(z, codes, nil, oneRange(0, 49)) // scans the zone, splits it from its parts
	if len(z.Zones) <= 1 {
		t.Fatal("no split happened")
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
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

func TestSplitRespectsMinZone(t *testing.T) {
	// One 40-row part: no boundary inside the zone to split at.
	codes := seqCodes(40, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, 40, 40)
	execute(z, codes, nil, oneRange(0, 5))
	if len(z.Zones) != 1 {
		t.Fatalf("split below the floor: %d zones", len(z.Zones))
	}
}

func TestMergeCoalescesUselessZones(t *testing.T) {
	// Random data: zones never skip, heat decays, cold runs coalesce.
	rng := rand.New(rand.NewSource(3))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(1000) })
	z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	z.Ablate(Arbitration)  // keep probing whatever the probes earn
	before := len(z.Zones) // 10
	for q := 0; q < 100; q++ {
		execute(z, codes, nil, oneRange(400, 600))
	}
	if len(z.Zones) >= before {
		t.Fatalf("no merge: %d -> %d", before, len(z.Zones))
	}
	if z.Stats().Merges == 0 {
		t.Fatal("merge counter not incremented")
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArbitrationDisablesOnAdversarialData(t *testing.T) {
	// Uniform random data: no zone ever skips; probing is pure overhead.
	rng := rand.New(rand.NewSource(5))
	codes := seqCodes(1000, func(i int) int64 { return rng.Int63n(100) })
	z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	for q := 0; q < 50; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Metadata().Enabled {
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
	z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	// Disable with an unskippable workload.
	for q := 0; q < 60; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Metadata().Enabled {
		t.Fatal("precondition: should be disabled")
	}
	// Workload drifts to a predicate entirely outside the data domain:
	// every zone would skip; shadow probes should re-enable.
	for q := 0; q < 60 && !z.Metadata().Enabled; q++ {
		enables := z.Stats().Enables
		probe := z.Prune(oneRange(10_000, 20_000)) // the probe execute makes; Prune writes nothing
		execute(z, codes, nil, oneRange(10_000, 20_000))
		if z.Stats().Enables > enables && !probe.Enabled {
			t.Fatal("the query that re-enabled the zonemap was not pruned")
		}
	}
	if !z.Metadata().Enabled {
		t.Fatal("shadow probe never re-enabled")
	}
	if z.Stats().Enables == 0 {
		t.Fatal("enable counter not incremented")
	}
}

func TestExtendAndTailFold(t *testing.T) {
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
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
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatal(err)
	}
	// Folded zones participate in pruning.
	res := z.Prune(oneRange(0, 10))
	if res.RowsSkipped == 0 {
		t.Fatal("folded zones should prune")
	}
	// FoldTail on empty tail is a no-op.
	z.FoldTail(storage.Vec{W: codes}, nil)
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFoldTailJournalsHullPastAllNullZone is the regression test for the
// fold record's hull: when the first folded zone is all NULL it carries
// no bounds, and the hull must be seeded from the first zone that does —
// not folded against a zero value (which reported min_after = 0 on
// all-positive data).
func TestFoldTailJournalsHullPastAllNullZone(t *testing.T) {
	codes := seqCodes(100, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(100)
	z := New(storage.Vec{W: codes}, nulls, smallZone, smallParts) // 100-row zones
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
	if err := z.CheckInvariants(storage.Vec{W: codes}, nulls); err != nil {
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
	z := New(storage.Vec{W: codes}, nulls, smallZone, smallParts)
	res := z.Prune(oneRange(-1_000_000, 1_000_000))
	// All-null zone must be skipped even for an all-matching predicate.
	if len(res.Zones) != 1 || res.Zones[0].Lo != 100 {
		t.Fatalf("zones=%v", res.Zones)
	}
	got := execute(z, codes, nulls, oneRange(-1_000_000, 1_000_000))
	if got != 100 {
		t.Fatalf("count=%d want 100", got)
	}
	// A zone of no value reads [0, 0] wherever its bounds are written.
	if s := z.DescribeZones(2); !strings.Contains(s, "bounds [0,0] nonNull=0") {
		t.Fatalf("the all-NULL zone described as %q", s)
	}
}

func TestDescribeZones(t *testing.T) {
	codes := seqCodes(250, func(i int) int64 { return int64(i) })
	z := New(storage.Vec{W: codes}, nil, smallZone, smallParts)
	s := z.DescribeZones(2)
	if s == "" || len(s) < 20 {
		t.Fatalf("DescribeZones: %q", s)
	}
}

// TestIntrospectIsReadOnly: Introspect, the cold path behind /adaptation,
// leaves the zones and the coarse level as it found them — after a stream
// that split and merged, and a last probe that pruned whole blocks — and
// reports as dead exactly the zones a merge treats as cold.
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
	z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	z.Ablate(Arbitration) // keep probing whatever the probes earn
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
	before := clone(z)
	snap, ok := z.Introspect()
	if !ok || !reflect.DeepEqual(before, z) {
		t.Fatal("Introspect wrote to the zonemap")
	}
	var dead []obs.ROIZone
	for i, zn := range z.Zones {
		if heat := z.learn[i].heat; heat < z.tune.mergeHeat {
			mn, mx := bounds(zn.Sum)
			lo, hi := zn.Rows()
			dead = append(dead, obs.ROIZone{Lo: lo, Hi: hi, Min: mn, Max: mx, Heat: heat})
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
	c.Zones, c.Blocks, c.Parts = slices.Clone(z.Zones), slices.Clone(z.Blocks), slices.Clone(z.Parts)
	c.learn = slices.Clone(z.learn)
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
	z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	z.Ablate(Arbitration) // keep probing whatever the probes earn
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
	z = small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	for q := 0; q < 50; q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Metadata().Enabled {
		t.Fatal("precondition: should be disabled")
	}
	out := oneRange(10_000, 20_000)
	for q := 0; (z.disabledQueries+1)%z.tune.horizon != 0 || z.shadowBenefit(out) <= 0; q++ {
		if q == 100 {
			t.Fatal("precondition: the shadow probe never turned positive")
		}
		if readOnly(t, "Prune on a disabled map", z, prune(out)).Enabled {
			t.Fatal("a disabled map probed on a query that does not re-enable it")
		}
		execute(z, codes, nil, out)
	}
	res = readOnly(t, "the re-enabling Prune", z, prune(out))
	if !res.Enabled || z.Metadata().Enabled {
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
	z := small(New(storage.Vec{W: codes}, nil, smallZone, smallParts))
	for q := 0; q < 50 && (z.Metadata().Enabled || z.disabledQueries == 0); q++ {
		execute(z, codes, nil, oneRange(40, 60))
	}
	if z.Metadata().Enabled || z.disabledQueries == 0 {
		t.Fatalf("precondition: disabled and counting down, got enabled=%v countdown=%d",
			z.Metadata().Enabled, z.disabledQueries)
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

// TestProbeStructSizes pins the min/max zone (a part, and a static
// zonemap's zone, are one too), its learner, the block (a hull) and the
// imprint's zone, which Metadata() counts with unsafe.Sizeof: 40 bytes an
// adaptive zone with its learner. A change here moves the three
// adaptive.metadata_bytes lines of scripts/bench_counters.golden
// (skip-clustered, scan-uniform and ingest-mixed) and the "bytes" literals
// of the engine's TestIntrospectDerivationsMatchParent.
func TestProbeStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(zone{}); got != 32 {
		t.Errorf("min/max zone is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(zonemap.Zone[uint64]{}); got != 24 {
		t.Errorf("imprint zone is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(learner{}); got != 8 {
		t.Errorf("learner is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(expr.Hull{}); got != 16 {
		t.Errorf("block is %d bytes, want 16", got)
	}
}

// handMap is a zonemap of one zone over 10-row parts with the given hulls
// and non-null counts, built over rows that have them: each part's
// non-null rows climb from its hull's min to its max, the rest are NULL.
// Monotone rows are never cut where they jump, so the parts are the
// 10-row ones. It returns the rows too.
func handMap(hulls []expr.Hull, nonNull []int) (*Zonemap, []int64, *bitvec.BitVec) {
	n := 10 * len(hulls)
	codes, nulls := make([]int64, n), bitvec.New(n)
	for k, h := range hulls {
		for j := 0; j < 10; j++ {
			if nn := nonNull[k]; j < nn {
				codes[10*k+j] = h.Min + (h.Max-h.Min)*int64(j)/int64(max(nn-1, 1))
			} else {
				nulls.Set(10*k + j)
			}
		}
	}
	return New(storage.Vec{W: codes}, nulls, n, 10), codes, nulls
}

// One Observe splits the zone it had to scan exactly where the verdict
// changes across its parts, and where neighbouring parts stop being alike:
// a run grows while the next part has its verdict and compatible bounds,
// and a pruned run only while its union is still pruned. With no pruned
// run nothing splits. Each sub-zone is the union of its parts, and a query
// that exposes every part leaves as many zones as parts: the summary is
// the directory's only bound.
func TestSplitAtVerdictChanges(t *testing.T) {
	h := func(lo, hi int64) expr.Hull { return expr.Hull{Min: lo, Max: hi} }
	bands := []expr.Hull{h(0, 9), h(0, 9), h(20, 29), h(30, 39), h(30, 39), h(40, 49), h(60, 69), h(60, 69)}
	sorted := []expr.Hull{h(0, 9), h(10, 19), h(20, 29), h(30, 39), h(40, 49), h(50, 59), h(60, 69), h(70, 79)}
	alternating := []expr.Hull{h(0, 9), h(100, 109), h(0, 9), h(100, 109), h(0, 9), h(100, 109), h(0, 9), h(100, 109)}
	full := func(k int) []int {
		n := make([]int, k)
		for i := range n {
			n[i] = 10
		}
		return n
	}
	for _, c := range []struct {
		name    string
		hulls   []expr.Hull
		nonNull []int
		r       expr.Ranges
		want    []int // the zones' first rows after the Observe
	}{
		{"skipped, straddled, covered, straddled, skipped", bands, full(8), oneRange(25, 44), []int{0, 20, 30, 50, 60}},
		{"skipped parts that are not alike", sorted, full(8), oneRange(25, 44), []int{0, 10, 20, 30, 40, 50, 60, 70}},
		{"alike skipped parts whose union straddles", []expr.Hull{h(0, 100), h(102, 150)}, full(2), oneRange(101, 101), []int{0, 10}},
		{"alike scanned parts join", []expr.Hull{h(0, 9), h(0, 9), h(100, 200), h(300, 400)}, full(4), oneRange(5, 150), []int{0, 20, 30}},
		{"alike covered parts join", []expr.Hull{h(0, 9), h(1, 10), h(40, 49)}, full(3), oneRange(0, 20), []int{0, 20}},
		{"NULLs keep a matching part scanned", []expr.Hull{h(0, 9), h(0, 9), h(0, 9), h(30, 39), h(60, 69), h(60, 69)},
			[]int{10, 10, 10, 9, 10, 10}, oneRange(30, 39), []int{0, 30, 40}},
		{"no pruned run", []expr.Hull{h(0, 9), h(100, 200), h(0, 9)}, full(3), oneRange(5, 150), []int{0}},
		{"one part", sorted[:1], full(1), oneRange(5, 6), []int{0}},
		{"every part exposed", alternating, full(8), oneRange(0, 9), []int{0, 10, 20, 30, 40, 50, 60, 70}},
	} {
		t.Run(c.name, func(t *testing.T) {
			z, codes, nulls := handMap(c.hulls, c.nonNull)
			if len(z.Zones) != 1 || len(z.Parts) != len(c.hulls) {
				t.Fatalf("built %d zones over %d parts, want 1 over %d", len(z.Zones), len(z.Parts), len(c.hulls))
			}
			z.Observe(z.Prune(c.r))
			var got []int
			k := 0
			for _, zn := range z.Zones {
				got = append(got, int(zn.Lo))
				union, nonNull := expr.EmptyHull, uint32(0)
				for ; k < len(z.Parts) && z.Parts[k].Hi <= zn.Hi; k++ {
					union, nonNull = union.Union(z.Parts[k].Sum), nonNull+z.Parts[k].NonNull
				}
				if zn.Sum != union || zn.NonNull != nonNull {
					t.Fatalf("zone [%d,%d) hull %+v nonNull %d, its parts %+v %d", zn.Lo, zn.Hi, zn.Sum, zn.NonNull, union, nonNull)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("zones start at %v, want %v", got, c.want)
			}
			if wantSplits := len(c.want) - 1; z.Stats().Splits != wantSplits {
				t.Fatalf("%d splits, want %d", z.Stats().Splits, wantSplits)
			}
			if err := z.CheckInvariants(storage.Vec{W: codes}, nulls); err != nil {
				t.Fatal(err)
			}
		})
	}
}
